import gc
import json
from collections import Counter

import pytest

import flagcalc.presentations as pres
from flagcalc.chowring import VARIANTS, chow_presentation
from flagcalc.errors import OutOfRangeError
from flagcalc.presentations import (
    VerificationReport,
    borel_presentation,
    degree2_generator_images,
    expected_degree2_table,
    gamma_defining_poly,
    gamma_degrees,
    gamma_expansion,
    gamma_word,
    verify_presentations,
)
from flagcalc.polyring import Polynomial
from flagcalc.rootdata import cartan_type
from flagcalc.schubert import SchubertCalc, SchubertExpansion, calculus_for

from conftest import word


def expansion(calc, table):
    return SchubertExpansion(
        len(next(iter(table))), {word(calc, w): c for w, c in table.items()}
    )


class TestGammaExpansion:
    def test_b4_gamma2(self, calc_b4):
        assert gamma_expansion(calc_b4, 2) == expansion(calc_b4, {"34": 1})

    def test_d4_gamma1(self, calc_d4):
        assert gamma_expansion(calc_d4, 1) == expansion(calc_d4, {"4": 1})

    def test_d4_gamma3(self, calc_d4):
        assert gamma_expansion(calc_d4, 3) == expansion(calc_d4, {"124": 1})

    def test_g2_gamma3(self, calc_g2):
        assert gamma_expansion(calc_g2, 3) == expansion(calc_g2, {"121": -1})

    def test_f4_gamma3(self, calc_f4):
        want = expansion(calc_f4, {"123": 1, "234": -1, "243": -2, "343": 3})
        assert gamma_expansion(calc_f4, 3) == want

    def test_f4_gamma4(self, calc_f4):
        want = expansion(
            calc_f4,
            {"1234": 1, "1243": -10, "1323": 4, "3234": -1, "3243": 10, "4323": -8},
        )
        assert gamma_expansion(calc_f4, 4) == want

    def test_missing_gamma_rejected(self, calc_g2, calc_d4):
        with pytest.raises(OutOfRangeError):
            gamma_expansion(calc_g2, 2)
        with pytest.raises(OutOfRangeError):
            gamma_expansion(calc_d4, 4)

    def test_gamma_words(self):
        assert gamma_word(cartan_type("B", 4), 2) == (3, 4)
        assert gamma_word(cartan_type("B", 4), 4) == (1, 2, 3, 4)
        assert gamma_word(cartan_type("D", 5), 1) == (5,)
        assert gamma_word(cartan_type("D", 5), 3) == (2, 3, 5)


GAMMA_TYPES = (
    [cartan_type("B", n) for n in range(2, 13)]
    + [cartan_type("D", n) for n in range(4, 13)]
    + [cartan_type("G2"), cartan_type("F4")]
)


@pytest.mark.parametrize("ct", GAMMA_TYPES, ids=str)
def test_gamma_degrees_agree_with_every_reader(ct):
    """gamma_degrees names the gamma_k that the Borel presentation lists,
    that give the Chow generators, and that gamma_defining_poly accepts."""
    ks = gamma_degrees(ct)
    n = ct.rank
    want = {"B": range(1, n + 1), "D": range(1, n), "G2": (3,), "F4": (3, 4)}
    assert ks == tuple(want[ct.family])
    gens = borel_presentation(ct).generators
    assert tuple(c for s, c in gens if s.startswith("g")) == ks
    assert [s for s, _ in gens if s.startswith("g")] == [f"g{k}" for k in ks]
    # the degree-1 generators, written out, are the t-classes of the root datum
    t_names = {
        "B": [f"t{i}" for i in range(1, n + 1)],
        "D": [f"t{i}" for i in range(1, n + 1)],
        "G2": ["t1", "t2", "t3"],
        "F4": ["t1", "t2", "t3", "t4", "t"],
    }[ct.family]
    assert gens == tuple((s, 1) for s in t_names) + tuple((f"g{k}", k) for k in ks)
    assert list(calculus_for(ct).datum.t_classes) == t_names
    for variant in VARIANTS:
        codims = tuple(g.codim for g in chow_presentation(ct, variant).generators)
        if ct.family in ("G2", "F4"):
            assert codims == ks
        else:
            skip = 1 if variant == "simply_connected" else 0
            assert codims == tuple(k for k in ks if k % 2 and k != skip)
    calc = calculus_for(ct)
    bd = ct.family in ("B", "D")
    for k in range(-1, ks[-1] + 3):
        if k in ks:
            f, mult = gamma_defining_poly(calc, k)
            assert f.degree() == k and mult == (3 if (ct.family, k) == ("F4", 4) else 2)
            if bd:
                assert len(gamma_word(ct, k)) == k
        else:
            with pytest.raises(OutOfRangeError, match=f"gamma_{k} does not exist"):
                gamma_defining_poly(calc, k)
            if bd:
                with pytest.raises(OutOfRangeError, match=f"gamma_{k} does not exist"):
                    gamma_word(ct, k)


class TestDegree2Images:
    @pytest.mark.parametrize(
        "fixture", ["calc_b3", "calc_b4", "calc_d4", "calc_d5", "calc_g2", "calc_f4"]
    )
    def test_match_displayed_equations(self, fixture, request):
        calc = request.getfixturevalue(fixture)
        got = degree2_generator_images(calc)
        for sym, table in expected_degree2_table(calc.cartan_type).items():
            assert got[sym] == expansion(calc, table), sym

    def test_b_top_class(self, calc_b4):
        got = degree2_generator_images(calc_b4)
        assert got["t4"] == expansion(calc_b4, {"3": -1, "4": 2})

    def test_d_top_classes(self, calc_d5):
        got = degree2_generator_images(calc_d5)
        assert got["t4"] == expansion(calc_d5, {"3": -1, "4": 1, "5": 1})
        assert got["t5"] == expansion(calc_d5, {"4": -1, "5": 1})

    @pytest.mark.parametrize("family,rank", [("B", 10), ("D", 10)])
    def test_two_digit_letters_pass(self, family, rank):
        # the letter 10 is one letter, not 1 then 0
        rep = verify_presentations(family, rank)
        assert rep.all_passed, [c.name for c in rep.failures()]

    @pytest.mark.parametrize("family", ["B", "D"])
    def test_every_word_is_one_letter_at_rank_12(self, family):
        tables = expected_degree2_table(cartan_type(family, 12)).values()
        words = [w for table in tables for w in table]
        assert all(len(w) == 1 and 1 <= w[0] <= 12 for w in words)
        assert {w[0] for w in words} == set(range(1, 13))

    def test_f4_t3(self, calc_f4):
        got = degree2_generator_images(calc_f4)
        assert got["t3"] == expansion(calc_f4, {"1": -1, "2": 1, "4": -1})


class TestBorelPresentationShape:
    def test_b3_counts_and_degrees(self):
        p = borel_presentation(cartan_type("B", 3))
        assert [c for _, c in p.generators] == [1, 1, 1, 1, 2, 3]
        assert [d for _, d in p.relations] == [1, 2, 3, 2, 4, 6]

    def test_d4_counts(self):
        p = borel_presentation(cartan_type("D", 4))
        # generators t1..t4, g1..g3; relations c_i - 2g_i (3), c_4, quadratics (3)
        assert len(p.generators) == 7
        assert len(p.relations) == 7

    def test_g2_shape(self):
        p = borel_presentation(cartan_type("G2"))
        assert [d for _, d in p.relations] == [1, 2, 3, 6]

    def test_f4_shape(self):
        p = borel_presentation(cartan_type("F4"))
        assert [d for _, d in p.relations] == [1, 2, 3, 4, 6, 8, 12]


class TestVerifyPaper:
    def test_g2_all_pass(self):
        rep = verify_presentations("G2")
        assert rep.all_passed, [c.name for c in rep.failures()]
        names = [c.name for c in rep.checks]
        assert "gamma_3 expansion" in names
        assert "rho6: gamma3^2 = 0" in names

    def test_f4_all_pass(self):
        rep = verify_presentations("F4")
        assert rep.all_passed, [c.name for c in rep.failures()]
        delta_rows = [c for c in rep.checks if c.name.startswith("Delta_")]
        assert len(delta_rows) == 16 + 25

    def test_b3_all_pass(self):
        rep = verify_presentations("B", 3)
        assert rep.all_passed, [c.name for c in rep.failures()]
        assert any("c_3 = 2*Z_123" in c.name for c in rep.checks)

    def test_b_sweep_all_pass(self):
        rep = verify_presentations("B")
        assert rep.all_passed, [c.name for c in rep.failures()]
        assert any(c.name.startswith("B2:") for c in rep.checks)
        assert any(c.name.startswith("B5:") for c in rep.checks)

    def test_d_sweep_all_pass(self):
        rep = verify_presentations("D")
        assert rep.all_passed, [c.name for c in rep.failures()]

    def test_report_json_and_table(self):
        rep = verify_presentations("G2")
        payload = rep.to_json_dict()
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == len(rep.checks)
        json.dumps(payload)  # serializable
        table = rep.to_table()
        assert "PASS" in table.splitlines()[0]
        assert len(table.splitlines()) == len(rep.checks) + 1

    def test_corrupted_table_fails(self, monkeypatch):
        monkeypatch.setitem(pres.F4_DELTA_C3, "243", -5)
        rep = verify_presentations("F4")
        assert not rep.all_passed
        assert any("Delta_243" in c.name for c in rep.failures())


class TestCheckRunner:
    def test_records_pass_and_fail(self):
        rep = VerificationReport("t", [])
        assert rep.check("same", lambda: (1, "1")) == "1"
        assert rep.check("differs", lambda: (1, 2)) == 2
        assert [(c.name, c.expected, c.got, c.passed) for c in rep.checks] == [
            ("same", "1", "1", True),
            ("differs", "1", "2", False),
        ]

    def test_repeated_passing_check_shares_one_record(self):
        a, b = VerificationReport("a", []), VerificationReport("b", [])
        for rep in (a, b):
            rep.check("same 7", lambda: (1, "1"))
            rep.check("differs 7", lambda: (1, 2))
        assert a.checks[0] is b.checks[0]
        assert a.checks[1] is not b.checks[1]
        assert a.checks == b.checks
        assert ("same 7", "1") in pres._PASSED
        del a, b, rep
        assert ("same 7", "1") not in pres._PASSED  # held by no report

    def test_raise_becomes_failed_check_under_its_name(self):
        rep = VerificationReport("t", [])

        def boom():
            raise OutOfRangeError("no such class")

        assert rep.check("rho9: made up", boom) is None
        assert rep.check("after", lambda: (0, 0)) == 0
        [failed] = rep.failures()
        assert (failed.name, failed.expected, failed.got) == (
            "rho9: made up",
            "no error",
            "OutOfRangeError: no such class",
        )
        assert [c.name for c in rep.checks] == ["rho9: made up", "after"]


def _raising_on(family):
    real = pres.gamma_expansion

    def gamma_expansion(calc, k):
        if calc.cartan_type.family == family:
            raise RuntimeError("injected")
        return real(calc, k)

    return gamma_expansion


class TestFaultInjection:
    """A check that raises is a failed check under its passing name."""

    @pytest.mark.parametrize(
        "family,rank,count", [("F4", None, 91), ("G2", None, None), ("B", 3, None)]
    )
    def test_gamma_failure_keeps_every_check(self, monkeypatch, family, rank, count):
        passing = verify_presentations(family, rank)
        assert passing.all_passed
        monkeypatch.setattr(pres, "gamma_expansion", _raising_on(family))
        rep = verify_presentations(family, rank)
        assert [c.name for c in rep.checks] == [c.name for c in passing.checks]
        if count is not None:
            assert len(rep.checks) == count
        failed = rep.failures()
        assert failed
        for c in failed:
            assert (c.expected, c.got) == ("no error", "RuntimeError: injected")

    def test_f4_failures_are_the_gamma_checks(self, monkeypatch):
        monkeypatch.setattr(pres, "gamma_expansion", _raising_on("F4"))
        failed = {c.name for c in verify_presentations("F4").failures()}
        assert failed == {
            "gamma_3 expansion",
            "gamma_4 expansion",
            "Z_123 Giambelli identity",
            "Z_1234 Giambelli identity",
            "Z_1243 Giambelli identity",
            "Z_1323 Giambelli identity",
            "Z_3234 Giambelli identity",
            "Z_4323 Giambelli identity",
            "rho3: c3 = 2*gamma3",
            "rho4: c4 - 4t*gamma3 + 8t^4 = 3*gamma4",
            "rho6: gamma3^2 relation",
            "rho8: gamma4^2 relation",
            "rho12: gamma4^3 relation",
        }


class TestGammaCalls:
    def test_bd_pass_computes_each_gamma_once(self, monkeypatch):
        calls = []
        real = pres.gamma_expansion

        def counting(calc, k):
            calls.append((calc.cartan_type.name, k))
            return real(calc, k)

        monkeypatch.setattr(pres, "gamma_expansion", counting)
        for family in ("B", "D"):
            assert verify_presentations(family).all_passed
        # B2..B5 have gamma_1..gamma_n, D4 and D5 gamma_1..gamma_{n-1}
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == (2 + 3 + 4 + 5) + (3 + 4)


class TestElemSymFailure:
    """A failure while building c_k or one of its partial sums fails exactly
    the checks that read it, and the suite goes on."""

    @pytest.mark.parametrize(
        "family,rank,lm",
        [("B", 3, (2, 3)), ("B", 3, (1, 2)), ("D", 4, (2, 4)), ("D", 4, (1, 2))],
    )
    def test_failure_keeps_every_check(self, monkeypatch, family, rank, lm):
        passing = verify_presentations(family, rank)
        real = pres.elem_sym_t

        def elem_sym_t(datum, l, m):
            if (l, m) == lm:
                raise RuntimeError("injected")
            return real(datum, l, m)

        monkeypatch.setattr(pres, "elem_sym_t", elem_sym_t)
        rep = verify_presentations(family, rank)
        assert [c.name for c in rep.checks] == [c.name for c in passing.checks]
        failed = rep.failures()
        assert failed
        for c in failed:
            assert (c.expected, c.got) == ("no error", "RuntimeError: injected")


def _chevalley_power(calc, lam, x, times):
    """x multiplied ``times`` times by the degree-2 class of the weight lam."""
    for _ in range(times):
        x = calc.chevalley_weight(lam, x)
    return x


def _f4_high_relations_by_polynomials(calc):
    """rho6, rho8 and rho12 of F4 as (right side, left side), with the pure
    t-powers expanded as polynomials and t^j * x as j Chevalley steps."""
    d = calc.datum
    t = Polynomial.linear_form(d.t_classes["t"])
    g3, g4 = gamma_expansion(calc, 3), gamma_expansion(calc, 4)

    def chev_t(x, times):
        return _chevalley_power(calc, d.extra_t, x, times)

    g4sq = calc.mul_expansions(g4, g4)
    return {
        "rho6: gamma3^2 relation": (
            chev_t(g4, 2).scale(3)
            + chev_t(g3, 3).scale(4)
            - calc.schubert_expand((t**6) * 8),
            calc.mul_expansions(g3, g3),
        ),
        "rho8: gamma4^2 relation": (
            chev_t(g4, 4).scale(3) + calc.schubert_expand((t**8) * 13),
            g4sq.scale(3) + chev_t(calc.mul_expansions(g3, g4), 1).scale(6),
        ),
        "rho12: gamma4^3 relation": (
            chev_t(g4sq, 4).scale(6) + calc.schubert_expand((t**12) * 8),
            calc.mul_expansions(g4sq, g4) + chev_t(g4, 8).scale(12),
        ),
    }


class TestClassMemo:
    """The class memo against the polynomial route it replaces in the
    relations."""

    def test_t_powers_are_the_polynomial_expansions(self, calc_f4):
        d = calc_f4.datum
        t1, t = (Polynomial.linear_form(d.t_classes[name]) for name in ("t1", "t"))
        cls = pres._Classes(calc_f4)
        for i in range(13):
            for j in range(13 - i):
                want = calc_f4.schubert_expand((t1**i) * (t**j))
                assert cls(i, j, ()) == want, (i, j)

    def test_f4_high_relations_match_the_polynomial_route(self, calc_f4):
        cls = pres._Classes(calc_f4)
        want = _f4_high_relations_by_polynomials(calc_f4)
        assert want.keys() == pres.F4_HIGH_RELATIONS.keys()
        for name, (rhs, lhs) in pres.F4_HIGH_RELATIONS.items():
            assert (cls.sum(rhs), cls.sum(lhs)) == want[name], name
            assert want[name][0] == want[name][1]

    def test_each_product_is_taken_once(self, monkeypatch):
        """A default G2+F4+B+D pass multiplies each gamma monomial once: the
        quadratic relations take gamma_i gamma_{2k-i} once per unordered
        pair, and F4's gamma3*gamma4 and gamma4^2 serve every relation."""
        calls = []
        real = SchubertCalc.mul_expansions

        def counting(calc, a, b):
            calls.append(calc.cartan_type.family)
            return real(calc, a, b)

        monkeypatch.setattr(SchubertCalc, "mul_expansions", counting)
        for family in ("G2", "F4", "B", "D"):
            assert verify_presentations(family).all_passed
        assert Counter(calls) == {"F4": 4, "B": 21, "D": 10}

    @pytest.mark.parametrize("family,rank", [("F4", None), ("B", 3)])
    def test_class_memo_is_freed_with_its_suite(self, family, rank):
        """With the collector off, a memo left in a reference cycle would
        still be alive after the suite returns."""
        gc.collect()
        gc.disable()
        try:
            assert verify_presentations(family, rank).all_passed
            assert not [o for o in gc.get_objects() if type(o) is pres._Classes]
        finally:
            gc.enable()
