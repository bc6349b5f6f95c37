"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[w1, ..., wl], the variables being the fundamental
weights of a fixed rank-l root system.  A polynomial is stored as one dict
from packed exponent keys to coefficients.  Coefficients are kept as plain
Python ints whenever they are integral and as ``fractions.Fraction``
otherwise; every operation is exact.

Packed keys.  The exponent vector (e_0, ..., e_{l-1}) is one Python int:
variable j takes the bits ``[j*W, (j+1)*W)`` and the total degree sits
above them, from bit ``l*W`` on.  Multiplying two monomials is then one int
addition, reading the exponent of variable j is one shift and mask, and the
total degree is one shift.  Because the degree field is the highest, the
largest key of a polynomial has its largest degree.  The encoding is private
to this module.

Overflow guard.  Every exponent must stay below ``2**W``.  A product or power
whose factors' degrees add up past ``2**W - 1`` is checked variable by
variable, and raises OutOfRangeError if some exponent could reach ``2**W``;
a key never wraps into the next field.  Power replacement never raises
the total degree, and it raises OutOfRangeError on an input whose total
degree passes ``2**W - 1``.

``Polynomial.terms`` is a read-only view keyed by exponent tuples, built on
demand over the packed dict; its ``len`` is the number of terms, in O(1).
The constructor takes any mapping from exponent tuples to coefficients.

Rendering.  ``signed_sum`` writes (coefficient, body) pairs as a signed sum
such as ``2*w1^3 - w2 + 1/2``.  ``Polynomial.format`` gives it the monomials,
highest degree first, and ``SchubertExpansion`` its classes, so both print alike.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .errors import OutOfRangeError

Rational = int | Fraction

_W = 16  # bits per variable
_MASK = (1 << _W) - 1  # the largest exponent a field holds


def _norm_coeff(c: Rational) -> Rational:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and turn integral Fractions into ints."""
    return {e: v if type(v) is int else _norm_coeff(v) for e, v in terms.items() if v}


def _unit(j: int, n: int) -> int:
    """Key of the variable of 0-based index j among n."""
    return (1 << (j * _W)) | (1 << (n * _W))


def _pack(expo, n: int) -> int:
    expo = tuple(expo)
    if len(expo) != n:
        raise ValueError(f"exponent vector {expo} does not have {n} entries")
    key = sum(expo) << (n * _W)
    for j, e in enumerate(expo):
        if not 0 <= e <= _MASK:
            raise OutOfRangeError(f"exponent {e} outside [0, {_MASK}]")
        key |= e << (j * _W)
    return key


def _unpack(key: int, n: int) -> tuple:
    return tuple((key >> (j * _W)) & _MASK for j in range(n))


def _degree(terms: dict, n: int) -> int:
    return max(terms) >> (n * _W) if terms else -1


def _max_exponents(terms: dict, n: int) -> list:
    return [max(((k >> (j * _W)) & _MASK for k in terms), default=0) for j in range(n)]


def _check_product(n: int, factors) -> None:
    """Raise unless a product of (term map, multiplicity) factors keeps every field."""
    if sum(m * _degree(t, n) for t, m in factors) <= _MASK:
        return
    tops = [0] * n
    for t, m in factors:
        for j, e in enumerate(_max_exponents(t, n)):
            tops[j] += m * e
    if max(tops) > _MASK:
        raise OutOfRangeError(f"an exponent would exceed {_MASK}")


def _check_degree_fits(terms: dict, n: int) -> None:
    if _degree(terms, n) > _MASK:
        raise OutOfRangeError(f"total degree exceeds {_MASK}")


def signed_sum(terms) -> str:
    """Render (coefficient, body) pairs, in order, as ``a - 2*b + 1/2*c``: a
    unit coefficient is left out, an empty body is a constant, no pairs is 0."""
    pieces = []
    for c, body in terms:
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        pieces.append(f"{'-' if c < 0 else '+'} {body}")
    if not pieces:
        return "0"
    out = " ".join(pieces)
    return out[2:] if out[0] == "+" else "-" + out[2:]


def _monomial_text(expo) -> str:
    """``w1^3*w2`` for the exponents (3, 1); empty for a constant."""
    return "*".join(f"w{j + 1}^{e}" if e > 1 else f"w{j + 1}" for j, e in enumerate(expo) if e)


def _dict_mul(a: dict, b: dict) -> dict:
    """Sparse convolution of two packed term maps; zero sums are kept."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    pairs = tuple(b.items())
    for ea, ca in a.items():
        for eb, cb in pairs:
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return out


def power_quotients(u: "Polynomial", j: int, rows: tuple, k: int) -> tuple:
    """``rows`` extended through row k, where row m is the quotient
    (w_j^m - u^m) / (w_j - u) = sum_{a<m} w_j^a u^(m-1-a) for a linear form u
    with integer coefficients, as the (packed key, coefficient) pairs of its
    nonzero terms that ``Polynomial.replace_powers`` reads.

    Row 0 is empty, and row m is w_j^(m-1) plus u times row m-1: one
    convolution with the terms of u per row, on packed keys.
    """
    unit = _unit(j, u.nvars)
    u_terms = tuple(u._terms.items())
    rows = list(rows) or [()]
    while len(rows) <= k:
        m = len(rows)
        out = {(m - 1) * unit: 1}
        get = out.get
        for e, c in rows[-1]:
            for f, d in u_terms:
                key = e + f
                out[key] = get(key, 0) + c * d
        rows.append(tuple(kv for kv in out.items() if kv[1]))
    return tuple(rows)


class _TermsView(Mapping):
    """Read-only map from exponent tuples to coefficients of one polynomial."""

    __slots__ = ("_terms", "_n")

    def __init__(self, terms: dict, n: int):
        self._terms = terms
        self._n = n

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        n = self._n
        return (_unpack(k, n) for k in self._terms)

    def __getitem__(self, expo):
        try:
            key = _pack(expo, self._n)
        except (TypeError, ValueError):
            raise KeyError(expo) from None
        return self._terms[key]

    def values(self):
        return self._terms.values()

    def __repr__(self):
        return repr(dict(self.items()))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        clean: dict = {}
        if terms:
            for expo, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[_pack(expo, nvars)] = c
        self.nvars = nvars
        self._terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Polynomial":
        # Caller guarantees terms are packed and already normalized.
        self = object.__new__(cls)
        self.nvars = nvars
        self._terms = terms
        return self

    @property
    def terms(self) -> _TermsView:
        """The terms, keyed by exponent tuples (read-only)."""
        return _TermsView(self._terms, self.nvars)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: Rational) -> "Polynomial":
        c = _norm_coeff(c)
        return cls._raw(nvars, {0: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, j: int) -> "Polynomial":
        """The variable of 0-based index j."""
        return cls._raw(nvars, {_unit(j, nvars): 1})

    @classmethod
    def linear_form(cls, coords) -> "Polynomial":
        """Degree-1 polynomial with the given coefficient vector."""
        coords = tuple(coords)
        n = len(coords)
        terms = {_unit(j, n): c for j, c in enumerate(coords)}
        return cls._raw(n, _clean(terms))

    @classmethod
    def monomial(cls, nvars: int, expo, c: Rational = 1) -> "Polynomial":
        c = _norm_coeff(c)
        return cls._raw(nvars, {_pack(expo, nvars): c} if c else {})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return _degree(self._terms, self.nvars)

    def is_homogeneous(self) -> bool:
        if not self._terms:
            return True
        top = self.nvars * _W
        return min(self._terms) >> top == max(self._terms) >> top

    def constant_term(self) -> Rational:
        return self._terms.get(0, 0)

    def coefficient(self, expo) -> Rational:
        return self.terms.get(expo, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        elif self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self._terms)
        get = out.get
        for e, c in other._terms.items():
            v = get(e, 0) + c
            if v:
                out[e] = v if type(v) is int else _norm_coeff(v)
            else:
                del out[e]
        return Polynomial._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.nvars, {e: -c for e, c in self._terms.items()})

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
        _check_product(self.nvars, ((self._terms, 1), (other._terms, 1)))
        return Polynomial._raw(self.nvars, _clean(_dict_mul(self._terms, other._terms)))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Rational) -> "Polynomial":
        c = _norm_coeff(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return Polynomial._raw(
            self.nvars, _clean({e: v * c for e, v in self._terms.items()})
        )

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        _check_product(self.nvars, ((self._terms, k),))
        result = Polynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def replace_powers(self, j: int, table) -> "Polynomial":
        """Replace each power w_j^k by the row ``table(k)``: the (packed key,
        coefficient) pairs of a polynomial of degree at most k, as
        ``power_quotients`` makes them.

        A term m * w_j^k, with m free of w_j, goes to m * table(k).  The map is
        linear, not a ring homomorphism; with table(k) the divided difference
        of w_j^k it is the divided difference of ``self``.
        """
        n = self.nvars
        _check_degree_fits(self._terms, n)
        shift = j * _W
        unit = _unit(j, n)
        rows: dict = {}
        out: dict = {}
        get = out.get
        for key, c in self._terms.items():
            k = (key >> shift) & _MASK
            row = rows.get(k)
            if row is None:
                row = rows[k] = table(k)
            rest = key - k * unit
            for e, v in row:
                e += rest
                out[e] = get(e, 0) + c * v
        return Polynomial._raw(n, _clean(out))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    __hash__ = None

    # -- display -----------------------------------------------------------

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.format()!r})"

    def format(self) -> str:
        """Render in the expression grammar, e.g. ``2*w1^3 - 3*w1^2*w2``."""
        rows = sorted(
            ((_unpack(key, self.nvars), c) for key, c in self._terms.items()),
            key=lambda row: (-sum(row[0]), tuple(-x for x in row[0])),
        )
        return signed_sum((c, _monomial_text(expo)) for expo, c in rows)
