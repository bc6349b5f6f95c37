"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[w1, ..., wl], the variables being the fundamental
weights of a fixed rank-l root system.  A polynomial is stored as a map from
exponent vectors (tuples of nonnegative ints of length l) to coefficients.
Coefficients are kept as plain Python ints whenever they are integral and as
``fractions.Fraction`` otherwise; every operation is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotDivisibleError

Rational = int | Fraction


def _norm_coeff(c: Rational) -> Rational:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _dict_mul(a: dict, b: dict) -> dict:
    """Sparse convolution of two term maps."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean: dict = {}
        if terms:
            for expo, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[tuple(expo)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Polynomial":
        # Caller guarantees terms are already normalized.
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: Rational) -> "Polynomial":
        c = _norm_coeff(c)
        return cls._raw(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, j: int) -> "Polynomial":
        """The variable of 0-based index j."""
        expo = tuple(1 if k == j else 0 for k in range(nvars))
        return cls._raw(nvars, {expo: 1})

    @classmethod
    def linear_form(cls, coords) -> "Polynomial":
        """Degree-1 polynomial with the given coefficient vector."""
        coords = tuple(coords)
        n = len(coords)
        terms = {}
        for j, c in enumerate(coords):
            c = _norm_coeff(c)
            if c:
                terms[tuple(1 if k == j else 0 for k in range(n))] = c
        return cls._raw(n, terms)

    @classmethod
    def monomial(cls, nvars: int, expo, c: Rational = 1) -> "Polynomial":
        c = _norm_coeff(c)
        return cls._raw(nvars, {tuple(expo): c} if c else {})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def constant_term(self) -> Rational:
        return self.terms.get((0,) * self.nvars, 0)

    def coefficient(self, expo) -> Rational:
        return self.terms.get(tuple(expo), 0)

    def linear_coords(self) -> tuple:
        """Coefficient vector of a polynomial of degree at most 1 (constant part dropped)."""
        coords = [0] * self.nvars
        for expo, c in self.terms.items():
            d = sum(expo)
            if d == 0:
                continue
            if d > 1:
                raise ValueError("polynomial has degree > 1")
            coords[expo.index(1)] = c
        return tuple(coords)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            v = _norm_coeff(v)
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return Polynomial._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = _dict_mul(self.terms, other.terms)
        for e in list(out):
            out[e] = _norm_coeff(out[e])
            if not out[e]:
                del out[e]
        return Polynomial._raw(self.nvars, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Rational) -> "Polynomial":
        c = _norm_coeff(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial._raw(
            self.nvars, {e: _norm_coeff(v * c) for e, v in self.terms.items()}
        )

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    __hash__ = None

    # -- display -----------------------------------------------------------

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.format()!r})"

    def format(self, names=None) -> str:
        """Render in the expression grammar, e.g. ``2*w1^3 - 3*w1^2*w2``."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"w{j + 1}" for j in range(self.nvars)]
        pieces = []
        for expo in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[expo]
            factors = []
            for j, e in enumerate(expo):
                if e == 1:
                    factors.append(names[j])
                elif e > 1:
                    factors.append(f"{names[j]}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            sign = "-" if c < 0 else "+"
            pieces.append((sign, text))
        first_sign, first = pieces[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out


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

    powers: dict = {j: [Polynomial.one(n), p] for j, p in active.items()}

    def power(j: int, e: int) -> dict:
        cache = powers[j]
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e].terms

    out: dict = {}
    for expo, c in f.terms.items():
        base = list(expo)
        parts = []
        for j in active:
            if expo[j]:
                parts.append((j, expo[j]))
                base[j] = 0
        acc = {tuple(base): c}
        for j, e in parts:
            acc = _dict_mul(acc, power(j, e))
        for e, v in acc.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            elif e in out:
                del out[e]
    for e in list(out):
        out[e] = _norm_coeff(out[e])
        if not out[e]:
            del out[e]
    return Polynomial._raw(n, out)


def weyl_substitute(w, f: Polynomial) -> Polynomial:
    """Apply a Weyl group element to a polynomial by substituting w(w_j) for w_j."""
    matrix = w.matrix
    n = f.nvars
    images = {j: tuple(matrix[r][j] for r in range(n)) for j in range(n)}
    return substitute_linear(f, images)


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
    coords = ell.linear_coords()
    pivot = next(j for j, c in enumerate(coords) if c)
    ck = coords[pivot]
    rest = {}  # ell - ck * w_pivot, as a term map over the other variables
    for j, c in enumerate(coords):
        if j != pivot and c:
            rest[tuple(1 if k == j else 0 for k in range(n))] = c

    # Slice f by the exponent of the pivot variable.
    levels: dict = {}
    for expo, c in f.terms.items():
        d = expo[pivot]
        stripped = expo[:pivot] + (0,) + expo[pivot + 1 :]
        levels.setdefault(d, {})[stripped] = c
    if not levels:
        return Polynomial.zero(n)

    top = max(levels)
    q_levels: dict = {}
    prev_q: dict = {}
    for d in range(top, 0, -1):
        eff = dict(levels.get(d, {}))
        if prev_q and rest:
            for e, v in _dict_mul(prev_q, rest).items():
                w = eff.get(e, 0) - v
                if w:
                    eff[e] = w
                elif e in eff:
                    del eff[e]
        qd = {e: _coeff_div(v, ck) for e, v in eff.items()}
        q_levels[d - 1] = qd
        prev_q = qd

    remainder = dict(levels.get(0, {}))
    if prev_q and rest:
        for e, v in _dict_mul(prev_q, rest).items():
            w = remainder.get(e, 0) - v
            if w:
                remainder[e] = w
            elif e in remainder:
                del remainder[e]
    if remainder:
        raise NotDivisibleError(
            f"remainder of degree {max(sum(e) for e in remainder)} left by division"
        )

    out = {}
    for d, qd in q_levels.items():
        for e, v in qd.items():
            expo = e[:pivot] + (d,) + e[pivot + 1 :]
            v = _norm_coeff(v)
            if v:
                out[expo] = v
    return Polynomial._raw(n, out)
