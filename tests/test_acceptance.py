"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every criterion builds its engines from scratch (the shared cache is
cleared first) so the reported runtimes are honest.
"""

import random
import time

import pytest

from flagcalc.chowring import (
    chow_groups,
    chow_presentation,
    presentation_strata,
    verify_chow,
)
from flagcalc.presentations import gamma_expansion, verify_presentations
from flagcalc.rootdata import cartan_type, elem_sym_t
from flagcalc.schubert import SchubertCalc, calculus_for

from conftest import reduced_words, weyl_substitute, word


def fresh(family, rank=None):
    return SchubertCalc(cartan_type(family, rank))


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s"


def test_criterion_1_g2_suite():
    t0 = time.monotonic()
    calc = fresh("G2")
    c3 = elem_sym_t(calc.datum, 3, 3)
    ok = gamma_expansion(calc, 3) == calc.indicator(word(calc, "121")).scale(-1)
    d121 = calc.delta_w(word(calc, "121"), c3)
    d212 = calc.delta_w(word(calc, "212"), c3)
    ok &= d121.constant_term() == -2 and d121.degree() == 0
    ok &= d212.is_zero()
    counts = [len(calc.group.elements_of_length(k)) for k in range(7)]
    ok &= counts == [1, 2, 2, 2, 2, 2, 1]
    elapsed = time.monotonic() - t0
    report(1, ok, "G2: gamma_3 = -Z_121, Delta values, length counts", elapsed, 1.0)


def test_criterion_2_f4_suite():
    calculus_for.cache_clear()
    t0 = time.monotonic()
    rep = verify_presentations("F4")
    elapsed = time.monotonic() - t0
    delta_rows = [c for c in rep.checks if c.name.startswith("Delta_")]
    gamma_rows = [c for c in rep.checks if c.name.startswith("gamma_")]
    lemma_rows = [c for c in rep.checks if "Giambelli identity" in c.name]
    ok = (
        rep.all_passed
        and len(delta_rows) == 41
        and len(gamma_rows) == 2
        and len(lemma_rows) == 10
    )
    detail = (
        f"F4: {len(delta_rows)} Delta-table values, gamma_3/gamma_4, "
        f"{len(lemma_rows)} Giambelli identities, all exact"
    )
    report(2, ok, detail, elapsed, 300.0)


def test_criterion_3_bd_series():
    calculus_for.cache_clear()
    t0 = time.monotonic()
    rep_b = verify_presentations("B")
    rep_d = verify_presentations("D")
    elapsed = time.monotonic() - t0
    ok = rep_b.all_passed and rep_d.all_passed
    nb = sum(1 for c in rep_b.checks if "= 2*Z_" in c.name)
    nd = sum(1 for c in rep_d.checks if "= 2*Z_" in c.name)
    detail = f"B2..B5 and D4..D5: {nb}+{nd} c_k expansions and all Lemma identities"
    report(3, ok, detail, elapsed, 120.0)


def test_criterion_4_chow_rings():
    calculus_for.cache_clear()
    t0 = time.monotonic()
    ok = True
    details = []

    calc_g2 = calculus_for(cartan_type("G2"))
    got = chow_groups(calc_g2, "simply_connected", 6)
    ok &= got.strata == ((0, (0,)), (3, (2,)))
    ok &= got == presentation_strata(
        chow_presentation(cartan_type("G2"), "simply_connected"), 6
    )
    details.append("A(G2)={3:Z/2}")

    calc_f4 = calculus_for(cartan_type("F4"))
    got = chow_groups(calc_f4, "simply_connected", 24)
    ok &= got.strata == ((0, (0,)), (3, (2,)), (4, (3,)), (8, (3,)))
    ok &= got == presentation_strata(
        chow_presentation(cartan_type("F4"), "simply_connected"), 24
    )
    details.append("A(F4)={3:Z/2,4:Z/3,8:Z/3}")

    rep = verify_chow("F4")
    names = {c.name for c in rep.checks}
    ok &= rep.all_passed and "F4: X4^2 != 0" in names and "F4: X4^3 = 0" in names
    details.append("X4^2!=0, X4^3=0")

    # Spin(m) and SO(m) for m = 7..11, every exponent p_i included.
    for family, rank in (("B", 3), ("D", 4), ("B", 4), ("D", 5), ("B", 5)):
        rep = verify_chow(family, rank)
        ok &= rep.all_passed
        if not rep.all_passed:
            details.append(f"{family}{rank} FAILED")
    details.append("Spin/SO(7..11) match closed forms")

    elapsed = time.monotonic() - t0
    report(4, ok, "; ".join(details), elapsed, 300.0)


class TestCriterion5Properties:
    budget = 300.0

    def test_criterion_5_property_suites(self):
        calculus_for.cache_clear()
        t0 = time.monotonic()
        rng = random.Random(2026)
        ok = True
        details = []

        # Word independence over all reduced words, 200 random elements/type.
        from test_polyring import random_poly

        for family, rank in (("B", 3), ("D", 4), ("G2", None), ("F4", None)):
            calc = calculus_for(cartan_type(family, rank))
            pool = []
            for k in range(min(6, calc.group.longest_length) + 1):
                pool.extend(calc.group.sorted_stratum(k))
            sample = [pool[rng.randrange(len(pool))] for _ in range(200)]
            for w in sample:
                f = random_poly(rng, calc.rank, w.length + 2, terms=5)
                base = calc.delta_w(w, f)
                for rw in reduced_words(calc.group, w):
                    if calc.delta_word(rw, f) != base:
                        ok = False
        details.append("word independence: 200 random elements x 4 types")

        # Delta_i^2 = 0 and the Leibniz rule on 100 random pairs.
        pairs_per_type = 25
        for family, rank in (("B", 3), ("D", 4), ("G2", None), ("F4", None)):
            calc = calculus_for(cartan_type(family, rank))
            for _ in range(pairs_per_type):
                u = random_poly(rng, calc.rank, 4, terms=4)
                v = random_poly(rng, calc.rank, 4, terms=4)
                i = rng.randint(1, calc.rank)
                s = calc.group.simple_reflection(i)
                if not calc.divided_difference(i, calc.divided_difference(i, u)).is_zero():
                    ok = False
                lhs = calc.divided_difference(i, u * v)
                rhs = calc.divided_difference(i, u) * v + weyl_substitute(
                    s, u
                ) * calc.divided_difference(i, v)
                if lhs != rhs:
                    ok = False
        details.append("Delta^2=0 and Leibniz on 100 pairs")

        # Giambelli round trip: all of W(G2), all F4 elements of length <= 6.
        calc_g2 = calculus_for(cartan_type("G2"))
        for k in range(7):
            for w in calc_g2.group.elements_of_length(k):
                if calc_g2.schubert_expand(calc_g2.giambelli_poly(w)) != calc_g2.indicator(w):
                    ok = False
        calc_f4 = calculus_for(cartan_type("F4"))
        count = 0
        for k in range(7):
            for w in calc_f4.group.elements_of_length(k):
                if calc_f4.schubert_expand(calc_f4.giambelli_poly(w)) != calc_f4.indicator(w):
                    ok = False
                count += 1
        details.append(f"Giambelli round trip (12 G2 + {count} F4 elements)")

        # Structure-constant symmetry and degree-1 agreement with Chevalley.
        g = calc_g2.group
        elems = [w for k in range(4) for w in g.sorted_stratum(k)]
        for u in elems:
            for v in elems:
                if u.length + v.length <= 6:
                    if calc_g2.structure_constants(u, v) != calc_g2.structure_constants(v, u):
                        ok = False
        for calc in (calc_g2, calc_f4):
            for alpha in range(1, calc.rank + 1):
                for k in range(3):
                    for w in calc.group.sorted_stratum(k):
                        lhs = calc.chevalley_product(alpha, w)
                        rhs = calc.structure_constants(
                            calc.group.simple_reflection(alpha), w
                        )
                        if lhs != rhs:
                            ok = False
        details.append("structure constants symmetric, match Chevalley at degree 1")

        # Palindromic counts and the full F4 enumeration.
        for family, rank in (("B", 3), ("D", 4), ("G2", None), ("F4", None)):
            calc = calculus_for(cartan_type(family, rank))
            N = calc.group.longest_length
            for k in range(N + 1):
                if len(calc.group.elements_of_length(k)) != len(
                    calc.group.elements_of_length(N - k)
                ):
                    ok = False
        total_f4 = sum(
            len(calc_f4.group.elements_of_length(k)) for k in range(25)
        )
        ok &= total_f4 == 1152
        details.append(f"palindromic counts, |W(F4)| = {total_f4}")

        elapsed = time.monotonic() - t0
        report(5, ok, "; ".join(details), elapsed, self.budget)


def test_criterion_6_cli_contract(capsys, monkeypatch):
    from flagcalc.cli import main

    t0 = time.monotonic()
    code_ok = main(["verify", "--type", "F4"])
    capsys.readouterr()

    import flagcalc.presentations as pres

    monkeypatch.setitem(pres.F4_DELTA_C3, "343", 7)
    code_corrupt = main(["verify", "--type", "F4"])
    capsys.readouterr()
    monkeypatch.undo()

    code_parse = main(["expand", "--type", "F4", "--expr", "t1 * * t2"])
    capsys.readouterr()

    ok = code_ok == 0 and code_corrupt == 1 and code_parse == 2
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report(
            6,
            ok,
            f"verify exit {code_ok}; corrupted-table exit {code_corrupt}; "
            f"parse-error exit {code_parse}",
            elapsed,
            300.0,
        )
