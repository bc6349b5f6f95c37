"""Property tests of the polynomial kernel, run when hypothesis is installed.

The divided difference is checked against a tuple-keyed reference written
here, independent of the packed kernel: Delta_i(m * w_i^k), with m free of
w_i, is m * sum_{j<k} w_i^j (w_i - alpha_i)^(k-1-j).
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from flagcalc.exprparse import parse_polynomial  # noqa: E402
from flagcalc.polyring import Polynomial  # noqa: E402
from flagcalc.rootdata import cartan_type  # noqa: E402
from flagcalc.schubert import calculus_for  # noqa: E402

TYPES = {"G2": ("G2", None), "B3": ("B", 3), "D4": ("D", 4), "F4": ("F4", None)}
COEFFS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
FAST = settings(max_examples=60, deadline=None)


def calc_of(name):
    return calculus_for(cartan_type(*TYPES[name]))


@st.composite
def term_lists(draw, nvars, max_degree, homogeneous):
    """A list of (exponent tuple, coefficient) pairs; exponents may repeat."""
    degree = draw(st.integers(0, max_degree))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        d = degree if homogeneous else draw(st.integers(0, max_degree))
        expo = [0] * nvars
        for j in draw(st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d)):
            expo[j] += 1
        terms.append((tuple(expo), draw(COEFFS)))
    return terms


def summed(terms):
    """Tuple-keyed sum of the terms, zero coefficients dropped."""
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def build(nvars, terms):
    p = Polynomial.zero(nvars)
    for e, c in terms:
        p = p + Polynomial.monomial(nvars, e, c)
    return p


def tuple_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def reference_delta(calc, i, f):
    n = calc.rank
    alpha = calc.datum.simple_roots[i - 1].omega
    unit = [tuple(int(r == j) for r in range(n)) for j in range(n)]
    image = summed((unit[r], int(r == i - 1) - alpha[r]) for r in range(n))
    out = {}
    for expo, c in f.terms.items():
        k = expo[i - 1]
        left = {expo[: i - 1] + (0,) + expo[i:]: c}  # c * m * w_i^j for j = 0, 1, ...
        right = [{(0,) * n: 1}]  # (w_i - alpha_i)^p for p = 0, 1, ...
        for _ in range(k - 1):
            right.append(tuple_mul(right[-1], image))
        for j in range(k):
            for e, v in tuple_mul(left, right[k - 1 - j]).items():
                out[e] = out.get(e, 0) + v
            left = tuple_mul(left, {unit[i - 1]: 1})
    return {
        e: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
        for e, c in out.items()
        if c
    }


@FAST
@given(st.data())
def test_divided_difference_matches_tuple_reference(data):
    name = data.draw(st.sampled_from(sorted(TYPES)))
    calc = calc_of(name)
    f = build(calc.rank, data.draw(term_lists(calc.rank, 6, homogeneous=True)))
    i = data.draw(st.integers(1, calc.rank))
    got = calc.divided_difference(i, f)
    want = reference_delta(calc, i, f)
    assert dict(got.terms) == want
    assert all(type(c) is int for c in got.terms.values() if Fraction(c).denominator == 1)


@FAST
@given(term_lists(4, 6, homogeneous=False))
def test_parse_of_format_is_identity(terms):
    f = build(4, terms)
    assert parse_polynomial(f.format(), calc_of("F4").datum) == f


@FAST
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), term_lists(n, 8, False))))
def test_terms_view_rebuilds_the_polynomial(case):
    nvars, terms = case
    f = build(nvars, terms)
    want = summed(terms)
    assert len(f.terms) == len(want)
    assert dict(f.terms) == want
    assert Polynomial(nvars, f.terms) == f
