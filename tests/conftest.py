"""Shared fixtures and the helpers that only the tests use.

Besides small lookups (``word``, ``reduced_words``, ``coroot_pairing``), this
module keeps the definitional route to the divided differences of
Bernstein-Gelfand-Gelfand and Demazure, Delta_i f = (f - s_i f) / alpha_i:
``weyl_substitute`` applies a Weyl group element by substituting linear forms
for the fundamental weights, and ``exact_div_linear`` divides by a linear
form exactly.  They are the oracle that ``SchubertCalc.divided_difference``
is checked against.
"""

from fractions import Fraction

import pytest

from flagcalc.errors import FlagcalcError, NotARootError
from flagcalc.polyring import (
    _MASK,
    _W,
    Polynomial,
    Rational,
    _check_degree_fits,
    _clean,
    _degree,
    _dict_mul,
    _norm_coeff,
    _unit,
)
from flagcalc.rootdata import cartan_type
from flagcalc.schubert import calculus_for


@pytest.fixture(scope="session")
def calc_g2():
    return calculus_for(cartan_type("G2"))


@pytest.fixture(scope="session")
def calc_f4():
    return calculus_for(cartan_type("F4"))


@pytest.fixture(scope="session")
def calc_b2():
    return calculus_for(cartan_type("B", 2))


@pytest.fixture(scope="session")
def calc_b3():
    return calculus_for(cartan_type("B", 3))


@pytest.fixture(scope="session")
def calc_b4():
    return calculus_for(cartan_type("B", 4))


@pytest.fixture(scope="session")
def calc_d4():
    return calculus_for(cartan_type("D", 4))


@pytest.fixture(scope="session")
def calc_d5():
    return calculus_for(cartan_type("D", 5))


def left_descents(g, perm) -> int:
    """Left descent set of the element of g with root permutation perm, as a
    mask: bit i-1 is set when l(s_i w) < l(w), i.e. when w^{-1}(alpha_i) is
    negative, so alpha_i is the image of a root of index N or more."""
    neg = perm[g.datum.num_positive_roots:]
    return sum(1 << i for i, a in enumerate(g.datum.simple_indices) if a in neg)


def word(calc, text):
    """Resolve a digit-string word to a group element."""
    if not text:
        return calc.group.identity
    return calc.group.element_from_word([int(ch) for ch in text])


def reduced_words(group, w) -> list:
    """All reduced words of w; exponential in the length, keep it small."""
    memo: dict = {}

    def rec(u):
        if u.length == 0:
            return [()]
        got = memo.get(u)
        if got is None:
            got = []
            for i in range(1, group.rank + 1):
                if group.descends(u, i):
                    got.extend(rw + (i,) for rw in rec(group.times_simple(u, i)))
            memo[u] = got
        return got

    return rec(w)


def coroot_pairing(datum, beta, lam):
    """Pairing (beta^vee | lam) of a coroot with a weight, exact.

    Integral whenever ``lam`` has integer coordinates; this is checked.
    """
    if not datum.is_root(beta.omega):
        raise NotARootError(f"{beta} is not a root of {datum.cartan_type}")
    val = _norm_coeff(
        sum(Fraction(c) * x for c, x in zip(beta.coroot_on_omega, lam))
    )
    if all(isinstance(x, int) for x in lam) and not isinstance(val, int):
        raise AssertionError(
            f"coroot pairing {val} is not an integer on a lattice weight"
        )
    return val


# ---------------------------------------------------------------------------
# The definitional divided difference: substitution and exact division
# ---------------------------------------------------------------------------


class NotDivisibleError(FlagcalcError, ArithmeticError):
    """Exact division of a polynomial by a linear form left a remainder."""


def substitute_linear(f: Polynomial, images: dict) -> Polynomial:
    """Substitute variables by linear forms.

    ``images`` maps 0-based variable indices to coefficient vectors; variables
    absent from the map are left alone.  Ring homomorphism, exact.
    """
    n = f.nvars
    active = {}
    for j, coords in images.items():
        coords = tuple(coords)
        if len(coords) != n:
            raise ValueError("image has wrong variable count")
        unit = tuple(1 if k == j else 0 for k in range(n))
        if coords != unit:
            active[j] = Polynomial.linear_form(coords)
    if not active:
        return f
    _check_degree_fits(f._terms, n)

    powers: dict = {j: [Polynomial.one(n), p] for j, p in active.items()}

    def power(j: int, e: int) -> dict:
        cache = powers[j]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]._terms

    out: dict = {}
    get = out.get
    for key, c in f._terms.items():
        base = key
        parts = []
        for j in active:
            e = (key >> (j * _W)) & _MASK
            if e:
                parts.append((j, e))
                base -= e * _unit(j, n)
        acc = {base: c}
        for j, e in parts:
            acc = _dict_mul(acc, power(j, e))
        for e, v in acc.items():
            out[e] = get(e, 0) + v
    return Polynomial._raw(n, _clean(out))


def weyl_substitute(w, f: Polynomial) -> Polynomial:
    """Apply a Weyl group element to a polynomial by substituting w(w_j) for w_j."""
    matrix = w.matrix
    n = f.nvars
    images = {j: tuple(matrix[r][j] for r in range(n)) for j in range(n)}
    return substitute_linear(f, images)


def linear_coords(ell: Polynomial) -> tuple:
    """Coefficient vector of a polynomial of degree at most 1 (constant part dropped)."""
    coords = [0] * ell.nvars
    degree_one = 1 << (ell.nvars * _W)
    for key, c in ell._terms.items():
        if key:
            if key >> (ell.nvars * _W) > 1:
                raise ValueError("polynomial has degree > 1")
            coords[(key - degree_one).bit_length() // _W] = c
    return tuple(coords)


def _coeff_div(c: Rational, d: Rational) -> Rational:
    if isinstance(c, int) and isinstance(d, int) and c % d == 0:
        return c // d
    return _norm_coeff(Fraction(c) / d)


def exact_div_linear(f: Polynomial, ell: Polynomial) -> Polynomial:
    """Exact quotient of f by a nonzero homogeneous linear form.

    Long division in the pivot variable (the smallest-index variable with a
    nonzero coefficient in ``ell``); raises NotDivisibleError if a nonzero
    remainder occurs.
    """
    if ell.is_zero():
        raise ValueError("division by zero linear form")
    if ell.degree() != 1 or not ell.is_homogeneous():
        raise ValueError("divisor must be homogeneous of degree 1")
    n = f.nvars
    _check_degree_fits(f._terms, n)
    coords = linear_coords(ell)
    pivot = next(j for j, c in enumerate(coords) if c)
    ck = coords[pivot]
    shift = pivot * _W
    unit = _unit(pivot, n)
    # ell - ck * w_pivot, as a term map over the other variables
    rest = {_unit(j, n): c for j, c in enumerate(coords) if j != pivot and c}

    # Slice f by the exponent of the pivot variable.
    levels: dict = {}
    for key, c in f._terms.items():
        d = (key >> shift) & _MASK
        levels.setdefault(d, {})[key - d * unit] = c
    if not levels:
        return Polynomial.zero(n)

    def subtract_product(eff: dict, q: dict) -> None:
        for e, v in _dict_mul(q, rest).items():
            w = eff.get(e, 0) - v
            if w:
                eff[e] = w
            elif e in eff:
                del eff[e]

    top = max(levels)
    out: dict = {}
    prev_q: dict = {}
    for d in range(top, 0, -1):
        eff = dict(levels.get(d, {}))
        if prev_q and rest:
            subtract_product(eff, prev_q)
        prev_q = {e: _coeff_div(v, ck) for e, v in eff.items()}
        for e, v in prev_q.items():
            out[e + (d - 1) * unit] = v

    remainder = dict(levels.get(0, {}))
    if prev_q and rest:
        subtract_product(remainder, prev_q)
    if remainder:
        raise NotDivisibleError(
            f"remainder of degree {_degree(remainder, n)} left by division"
        )
    return Polynomial._raw(n, _clean(out))
