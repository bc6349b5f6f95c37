import random
from fractions import Fraction

import pytest

from flagcalc.errors import OutOfRangeError, ParseError
from flagcalc.exprparse import parse_polynomial
from flagcalc.polyring import _W, Polynomial, signed_sum
from flagcalc.schubert import SchubertExpansion

from conftest import (
    NotDivisibleError,
    exact_div_linear,
    substitute_linear,
    weyl_substitute,
    word,
)


def random_poly(rng, nvars, degree, terms=6):
    p = Polynomial.zero(nvars)
    for _ in range(terms):
        expo = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            expo[rng.randrange(nvars)] += 1
        p = p + Polynomial.monomial(nvars, tuple(expo), rng.randint(-5, 5))
    return p


def test_add_zero_identity():
    rng = random.Random(1)
    a = random_poly(rng, 3, 4)
    assert a + Polynomial.zero(3) == a


def test_monomial_product():
    w1 = Polynomial.variable(2, 0)
    w2 = Polynomial.variable(2, 1)
    assert w1 * w2 == Polynomial.monomial(2, (1, 1), 1)


def test_g2_t_class_product(calc_g2):
    d = calc_g2.datum
    t1, t2, t3 = map(Polynomial.linear_form, d.t_classes.values())
    prod = t1 * t2 * t3
    assert prod == Polynomial(2, {(3, 0): 2, (2, 1): -3, (1, 2): 1})


def test_exact_rational_coefficients():
    p = Polynomial.constant(1, Fraction(1, 3)) * 3
    assert p == Polynomial.one(1)
    q = Polynomial.variable(1, 0).scale(Fraction(2, 4))
    assert q.terms[(1,)] == Fraction(1, 2)


def test_no_zero_terms_stored():
    a = Polynomial.variable(2, 0)
    assert (a - a).terms == {}
    assert (a * 0).terms == {}


def test_pow_matches_repeated_mul():
    rng = random.Random(2)
    a = random_poly(rng, 2, 3, terms=4)
    b = Polynomial.one(2)
    for k in range(5):
        assert a**k == b
        b = b * a


def test_degree_and_homogeneity():
    assert Polynomial.zero(2).degree() == -1
    p = Polynomial.monomial(2, (2, 1)) + Polynomial.monomial(2, (0, 3))
    assert p.degree() == 3 and p.is_homogeneous()
    q = p + Polynomial.one(2)
    assert not q.is_homogeneous()


class TestVariableCount:
    """A sum of polynomials in different numbers of variables is refused."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: b.__radd__(a),
            lambda a, b: b.__rsub__(a),
        ],
        ids=["add", "sub", "radd", "rsub"],
    )
    def test_mismatch_raises(self, op):
        two, three = Polynomial.variable(2, 0), Polynomial.variable(3, 0)
        for a, b in ((two, three), (three, two)):
            with pytest.raises(ValueError, match="variable count mismatch"):
                op(a, b)

    def test_constants_still_combine(self):
        w1 = Polynomial.variable(2, 0)
        assert (1 + w1) - 1 == w1
        assert 1 - w1 == Polynomial.constant(2, 1) - w1
        assert str(2 - w1) == "-w1 + 2"


class TestSignedSum:
    """The one renderer behind polynomials and Schubert expansions."""

    @pytest.mark.parametrize(
        "pairs,text",
        [
            ([], "0"),
            ([(-1, "w1"), (2, "w2")], "-w1 + 2*w2"),
            ([(2, "")], "2"),
            ([(-1, "")], "-1"),
            ([(Fraction(1, 2), "w2")], "1/2*w2"),
            ([(1, "Z_e")], "Z_e"),
            ([(1, "a"), (-3, "b"), (1, "")], "a - 3*b + 1"),
        ],
    )
    def test_pairs(self, pairs, text):
        assert signed_sum(pairs) == text

    @pytest.mark.parametrize(
        "build,text",
        [
            (lambda c: Polynomial.zero(2), "0"),
            (lambda c: Polynomial.linear_form((-1, 2)), "-w1 + 2*w2"),
            (lambda c: Polynomial.constant(2, 2), "2"),
            (lambda c: Polynomial.constant(2, -1), "-1"),
            (lambda c: Polynomial.monomial(2, (0, 1), Fraction(1, 2)), "1/2*w2"),
            (lambda c: Polynomial.monomial(2, (2, 1), -3) + 1, "-3*w1^2*w2 + 1"),
            (lambda c: c.indicator(c.group.identity), "Z_e"),
            (lambda c: SchubertExpansion(2), "0"),
            (lambda c: c.chevalley_weight((1, 0), c.indicator(c.group.identity)), "Z_1"),
            (
                lambda c: c.indicator(word(c, "12")).scale(-2) + c.indicator(word(c, "21")),
                "-2*Z_12 + Z_21",
            ),
        ],
    )
    def test_polynomials_and_expansions(self, calc_g2, build, text):
        assert str(build(calc_g2)) == text


class TestPackedWidth:
    def test_exponent_past_the_width_raises(self):
        w1 = Polynomial.variable(2, 0)
        with pytest.raises(OutOfRangeError):
            Polynomial.monomial(2, (2**_W, 0))
        with pytest.raises(OutOfRangeError):
            w1 ** (2**_W)
        with pytest.raises(OutOfRangeError):
            (w1 ** (2**_W - 1)) * w1

    def test_full_fields_keep_both_exponents(self):
        w1 = Polynomial.variable(2, 0)
        w2 = Polynomial.variable(2, 1)
        p = w1 ** (2**_W - 1) * w2
        assert dict(p.terms) == {(2**_W - 1, 1): 1}
        assert p.degree() == 2**_W

    def test_degree_past_the_width_is_refused(self, calc_g2):
        # substitution, division and the divided difference can move exponent
        # between variables, so they refuse a total degree of 2^W or more
        f = Polynomial.monomial(2, (2**_W - 1, 1))
        with pytest.raises(OutOfRangeError):
            substitute_linear(f, {0: (1, 1)})
        with pytest.raises(OutOfRangeError):
            exact_div_linear(f, Polynomial.variable(2, 1))
        with pytest.raises(OutOfRangeError):
            calc_g2.divided_difference(1, f)


class TestTermsView:
    def test_tuple_keys_and_length(self):
        p = Polynomial(3, {(2, 0, 1): 4, (0, 3, 0): Fraction(1, 2), (1, 1, 1): 0})
        assert len(p.terms) == 2
        assert set(p.terms) == {(2, 0, 1), (0, 3, 0)}
        assert p.terms[(0, 3, 0)] == Fraction(1, 2)
        assert (1, 1, 1) not in p.terms and (1, 1) not in p.terms
        assert p.coefficient((2, 0, 1)) == 4 and p.coefficient((9, 9)) == 0
        assert Polynomial(3, p.terms) == p

    def test_coefficients_stay_ints_when_integral(self):
        half = Polynomial.variable(2, 0).scale(Fraction(1, 2))
        for p in (half + half, half * Polynomial.variable(2, 1).scale(2)):
            assert all(type(c) is int for c in p.terms.values())

    def test_format_orders_by_degree_then_first_variable(self):
        p = Polynomial(3, {(0, 0, 1): 1, (1, 2, 0): 1, (0, 3, 0): -2, (3, 0, 0): 5})
        assert p.format() == "5*w1^3 + w1*w2^2 - 2*w2^3 + w3"


class TestExactDivision:
    def test_simple_quotient(self):
        w1 = Polynomial.variable(2, 0)
        w2 = Polynomial.variable(2, 1)
        f = w1 * w1 - w1 * w2
        assert exact_div_linear(f, w1) == w1 - w2

    def test_not_divisible(self):
        w1 = Polynomial.variable(2, 0)
        w2 = Polynomial.variable(2, 1)
        with pytest.raises(NotDivisibleError):
            exact_div_linear(w1 + w2, w1)

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(40):
            nvars = rng.randint(2, 4)
            f = random_poly(rng, nvars, 4)
            coords = [rng.randint(-3, 3) for _ in range(nvars)]
            if not any(coords):
                coords[0] = 2
            ell = Polynomial.linear_form(coords)
            assert exact_div_linear(f * ell, ell) == f

    def test_fractional_pivot(self):
        ell = Polynomial.linear_form((2, -1))
        f = Polynomial.variable(2, 0)
        # (w1 * ell) / ell recovers w1 even though the pivot coefficient is 2
        assert exact_div_linear(f * ell, ell) == f

    def test_rejects_nonlinear(self):
        w1 = Polynomial.variable(2, 0)
        with pytest.raises(ValueError):
            exact_div_linear(w1, w1 * w1)
        with pytest.raises(ValueError):
            exact_div_linear(w1, Polynomial.zero(2))


class TestSubstitution:
    def test_identity_images(self):
        rng = random.Random(4)
        f = random_poly(rng, 3, 4)
        images = {j: tuple(1 if k == j else 0 for k in range(3)) for j in range(3)}
        assert substitute_linear(f, images) == f

    def test_is_ring_homomorphism(self):
        rng = random.Random(5)
        images = {0: (1, -2, 0), 2: (0, 1, 1)}
        for _ in range(10):
            f = random_poly(rng, 3, 3)
            g = random_poly(rng, 3, 3)
            assert substitute_linear(f * g, images) == substitute_linear(
                f, images
            ) * substitute_linear(g, images)
            assert substitute_linear(f + g, images) == substitute_linear(
                f, images
            ) + substitute_linear(g, images)


def test_weyl_substitute_identity(calc_g2):
    rng = random.Random(6)
    f = random_poly(rng, 2, 4)
    assert weyl_substitute(calc_g2.group.identity, f) == f


def test_weyl_substitute_table_action(calc_g2):
    # s1 applied to t3 gives -t3
    d = calc_g2.datum
    s1 = calc_g2.group.simple_reflection(1)
    t3 = Polynomial.linear_form(d.t_classes["t3"])
    assert weyl_substitute(s1, t3) == -t3


def test_weyl_substitute_symmetric_invariance(calc_b3):
    # e_k(t_1..t_n) is fixed by s_i for i < n
    from flagcalc.rootdata import elem_sym_t

    for k in (1, 2, 3):
        f = elem_sym_t(calc_b3.datum, k, 3)
        for i in (1, 2):
            s = calc_b3.group.simple_reflection(i)
            assert weyl_substitute(s, f) == f


def test_weyl_substitute_composition(calc_f4):
    rng = random.Random(7)
    g = calc_f4.group
    for _ in range(10):
        w = g.element_from_word([rng.randint(1, 4) for _ in range(5)])
        v = g.element_from_word([rng.randint(1, 4) for _ in range(5)])
        f = random_poly(rng, 4, 3, terms=4)
        lhs = weyl_substitute(g.compose(w, v), f)
        rhs = weyl_substitute(w, weyl_substitute(v, f))
        assert lhs == rhs


class TestParser:
    def test_basic_expression(self, calc_g2):
        d = calc_g2.datum
        p = parse_polynomial("2*w1^3 - 3*w1^2*w2 + w1*w2^2", d)
        from flagcalc.rootdata import elem_sym_t

        assert p == elem_sym_t(d, 3, 3)

    def test_t_variables_expand(self, calc_g2):
        d = calc_g2.datum
        assert parse_polynomial("t1*t2*t3", d) == parse_polynomial(
            "2*w1^3 - 3*w1^2*w2 + w1*w2^2", d
        )

    def test_rational_literal(self, calc_g2):
        p = parse_polynomial("1/2*w1 + 1/2*w1", calc_g2.datum)
        assert p == Polynomial.variable(2, 0)

    def test_parentheses_and_unary_minus(self, calc_g2):
        p = parse_polynomial("-(w1 - w2)^2", calc_g2.datum)
        q = parse_polynomial("-w1^2 + 2*w1*w2 - w2^2", calc_g2.datum)
        assert p == q

    def test_extra_t_only_for_f4(self, calc_f4, calc_b3):
        t = Polynomial.linear_form(calc_f4.datum.t_classes["t"])
        assert parse_polynomial("t", calc_f4.datum) == t
        with pytest.raises(ParseError):
            parse_polynomial("t", calc_b3.datum)

    @pytest.mark.parametrize(
        "bad", ["w1 + +", "w9", "t9", "2^w1", "(w1", "w1 w2", "x1", "1/0"]
    )
    def test_parse_errors(self, bad, calc_g2):
        with pytest.raises(ParseError):
            parse_polynomial(bad, calc_g2.datum)

    def test_degree_bound(self, calc_g2):
        # G2 has N = 6 positive roots: degree 6 parses, any power or product
        # of degree 7 is refused, and zero powers stay zero
        d = calc_g2.datum
        assert parse_polynomial("w1^6", d) == Polynomial.monomial(2, (6, 0), 1)
        assert parse_polynomial("(w1 - w1)^1000", d).is_zero()
        for bad in ["w1^7", "w1^3*w2^4", "(w1^2)^4", "w1*(w1+w2)^6", "w1^99999999999"]:
            with pytest.raises(OutOfRangeError):
                parse_polynomial(bad, d)

    def test_format_round_trip(self, calc_f4):
        rng = random.Random(8)
        for _ in range(10):
            f = random_poly(rng, 4, 4)
            assert parse_polynomial(f.format(), calc_f4.datum) == f
