"""Root-system data for the Cartan types B_n, D_n, G2 and F4.

Conventions (Bourbaki numbering throughout):

* the Cartan matrix entry ``M[i][j]`` is the pairing of the j-th simple root
  with the i-th simple coroot, so column j of M is the j-th simple root
  written in fundamental-weight coordinates;
* weights are coordinate vectors in the basis of fundamental weights;
* root lengths are normalized so that long roots have squared length 2
  (short roots then have squared length 1 in B/D/F4 and 2/3 in G2).

Each type also carries its standard degree-2 classes t_1, ..., t_n (and the
extra half-sum class t for F4) in weight coordinates, so that the classical
torus descriptions are reproduced exactly.  ``RootDatum.t_classes`` maps
their names ``t1``, ..., ``tn`` (then ``t`` for F4) to their weights, in that
order; it is the one place that names them.  For B and D they are derived
from their partial sums t_1 + ... + t_k, which are fundamental weights up to
the last one or two; for G2 and F4 they are listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import neg, sub

from .errors import OutOfRangeError, UnsupportedRankError
from .polyring import Polynomial, Rational, _norm_coeff

FAMILIES = ("B", "D", "G2", "F4")

# Largest supported rank for B and D.  The root closure takes about rank^3
# steps (on a 2-CPU x86-64 host with Python 3.11, B30 builds in 0.03 s, B50
# in 0.11 s and B120 in 1.2 s), and larger ranks are refused before any root
# is built.
MAX_CLASSICAL_RANK = 30

Weight = tuple  # coordinate vector in the fundamental-weight basis


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedRankError(f"unknown family {self.family!r}")
        if self.family == "B" and self.rank < 2:
            raise UnsupportedRankError("type B requires rank >= 2")
        if self.family == "D" and self.rank < 4:
            raise UnsupportedRankError("type D requires rank >= 4")
        if self.family in ("B", "D") and self.rank > MAX_CLASSICAL_RANK:
            raise UnsupportedRankError(
                f"type {self.family} supports rank at most {MAX_CLASSICAL_RANK}"
            )
        if self.family == "G2" and self.rank != 2:
            raise UnsupportedRankError("type G2 has rank 2")
        if self.family == "F4" and self.rank != 4:
            raise UnsupportedRankError("type F4 has rank 4")

    @property
    def name(self) -> str:
        if self.family in ("G2", "F4"):
            return self.family
        return f"{self.family}{self.rank}"

    def __str__(self):
        return self.name


def cartan_type(family: str, rank: int | None = None) -> CartanType:
    """Build a CartanType, defaulting the rank for the exceptional types."""
    if family in ("G2", "F4"):
        return CartanType(family, rank if rank is not None else (2 if family == "G2" else 4))
    if rank is None:
        raise UnsupportedRankError(f"type {family} needs an explicit rank")
    return CartanType(family, rank)


@dataclass(frozen=True)
class Root:
    """A root, stored both in simple-root and weight coordinates."""

    simple_coords: tuple
    omega: Weight
    length_sq: Rational
    coroot_on_omega: tuple = field(compare=False)
    # coroot_on_omega[i] is the pairing of the i-th fundamental weight with
    # the coroot of this root, so (beta^vee | lam) = sum_i c_i * lam_i.

    @property
    def is_positive(self) -> bool:
        return all(m >= 0 for m in self.simple_coords)

    def __str__(self):
        return str(Polynomial.linear_form(self.omega))


def _cartan_matrix(family: str, n: int) -> tuple:
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if family == "B":
        for i in range(n - 1):
            rows[i][i + 1] = -1
            rows[i + 1][i] = -1
        rows[n - 1][n - 2] = -2
    elif family == "D":
        for i in range(n - 2):
            rows[i][i + 1] = -1
            rows[i + 1][i] = -1
        rows[n - 3][n - 1] = -1
        rows[n - 1][n - 3] = -1
    elif family == "G2":
        rows = [[2, -3], [-1, 2]]
    elif family == "F4":
        rows = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    return tuple(tuple(r) for r in rows)


def _simple_length_sq(family: str, n: int) -> tuple:
    if family == "B":
        return (2,) * (n - 1) + (1,)
    if family == "D":
        return (2,) * n
    if family == "G2":
        return (Fraction(2, 3), 2)
    return (2, 2, 1, 1)


def _unit(n: int, j: int, c: Rational = 1) -> tuple:
    return tuple(c if k == j else 0 for k in range(n))


def _t_vectors(family: str, n: int):
    """The classes t_i in weight coordinates, plus the extra class for F4."""
    if family in ("B", "D"):
        # The partial sums e_k = t_1 + ... + t_k are the omega_k, except
        # e_n = 2 omega_n and, in D, e_{n-1} = omega_{n-1} + omega_n.
        e = [(0,) * n] + [list(_unit(n, k)) for k in range(n)]
        e[n][n - 1] = 2
        if family == "D":
            e[n - 1][n - 1] = 1
        return tuple(tuple(map(sub, e[i], e[i - 1])) for i in range(1, n + 1)), None
    if family == "G2":
        return ((-1, 0), (-1, 1), (2, -1)), None
    # F4: t_1..t_4 and t = c_1/2
    return (
        (0, 0, 0, -1),
        (1, 0, 0, -1),
        (-1, 1, 0, -1),
        (0, -1, 2, -1),
    ), (0, 0, 1, -2)


_NUM_POSITIVE = {
    "B": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G2": lambda n: 6,
    "F4": lambda n: 24,
}


class RootDatum:
    """All root-system data for one Cartan type.

    Immutable after construction; every operation on it is pure, so a single
    instance can be shared freely.
    """

    def __init__(self, ct: CartanType):
        self.cartan_type = ct
        self.rank = ct.rank
        self.cartan_matrix = _cartan_matrix(ct.family, ct.rank)
        self.simple_length_sq = _simple_length_sq(ct.family, ct.rank)
        self.t_vectors, self.extra_t = _t_vectors(ct.family, ct.rank)
        self.t_classes = {f"t{i}": t for i, t in enumerate(self.t_vectors, 1)}
        if self.extra_t is not None:
            self.t_classes["t"] = self.extra_t
        self.fundamental_weights = tuple(_unit(ct.rank, j) for j in range(ct.rank))

        self._close_roots()
        expected = _NUM_POSITIVE[ct.family](ct.rank)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"reflection closure found {len(self.positive_roots)} positive "
                f"roots for {ct}, expected {expected}"
            )
        self.num_positive_roots = expected

    # -- construction ------------------------------------------------------

    def _close_roots(self):
        """All roots, and each simple reflection as a permutation of root indices.

        The closure runs breadth-first over the positive roots only, from the
        simple roots.  For beta with weight coordinates omega, s_i beta =
        beta - omega_i alpha_i changes only the i-th simple coordinate, and
        its weight coordinates are omega minus omega_i times column i of the
        Cartan matrix; it is positive unless beta = alpha_i.  The image of
        every positive root under every s_i is met on the way, and the
        negative roots are mirrored: s_i(-beta) = -s_i(beta).  Roots are
        numbered with the positive roots first, in ``positive_roots`` order
        (0..N-1), and -beta_b at N + b.
        """
        n = self.rank
        M = self.cartan_matrix
        cols = [tuple(row[j] for row in M) for j in range(n)]  # alpha_j as a weight
        order = [_unit(n, j) for j in range(n)]  # simple coordinates, as found
        omegas = cols[:]  # weight coordinates, in the same order
        found = {m: p for p, m in enumerate(order)}
        # images[i][p]: position of s_i(order[p]), or -1 for s_i(alpha_i) = -alpha_i
        images = [[] for _ in range(n)]
        for p, m in enumerate(order):  # order grows while it is walked
            omega = omegas[p]
            for i, c in enumerate(omega):
                q = p
                if c:
                    if p == i:
                        q = -1
                    else:
                        m2 = m[:i] + (m[i] - c,) + m[i + 1:]
                        q = found.get(m2)
                        if q is None:
                            q = found[m2] = len(order)
                            order.append(m2)
                            omegas.append(tuple(x - c * y for x, y in zip(omega, cols[i])))
                images[i].append(q)

        # Integer symmetrizer d_i = D |alpha_i|^2, D the least common
        # denominator.  For beta = sum m_i alpha_i with weight coordinates
        # omega, (alpha_i, beta) = |alpha_i|^2 omega_i / 2, so with
        # norm = sum m_i omega_i d_i the squared length is norm / (2D) and the
        # coroot coordinates m_i |alpha_i|^2 / |beta|^2 are 2 m_i d_i / norm.
        denom = lcm(*(Fraction(x).denominator for x in self.simple_length_sq))
        sym = [int(x * denom) for x in self.simple_length_sq]
        length_sq: dict = {}  # by norm; there are at most two root lengths

        def make_root(m: tuple, omega: tuple) -> Root:
            norm = sum(a * b * d for a, b, d in zip(m, omega, sym))
            lsq = length_sq.get(norm)
            if lsq is None:
                lsq = length_sq[norm] = _norm_coeff(Fraction(norm, 2 * denom))
            cvec = tuple(2 * a * d // norm for a, d in zip(m, sym))
            return Root(m, omega, lsq, cvec)

        def negated(r: Root) -> Root:
            return Root(
                tuple(map(neg, r.simple_coords)), tuple(map(neg, r.omega)),
                r.length_sq, tuple(map(neg, r.coroot_on_omega)),
            )

        # where[k]: position in ``order`` of the positive root numbered k
        where = sorted(range(len(order)), key=lambda p: (sum(order[p]), order[p]))
        N = len(where)
        index = [0] * N
        for k, p in enumerate(where):
            index[p] = k
        self.positive_roots = tuple(make_root(order[p], omegas[p]) for p in where)
        self.indexed_roots = self.positive_roots + tuple(map(negated, self.positive_roots))
        self.root_index = {r.omega: k for k, r in enumerate(self.indexed_roots)}
        self.simple_indices = tuple(index[:n])
        self.simple_roots = tuple(map(self.indexed_roots.__getitem__, self.simple_indices))
        reflections = []
        for row in images:
            # s_i(beta_k) is positive unless beta_k = alpha_i, and s_i(-beta) = -s_i(beta)
            up = [N + k if q < 0 else index[q] for k, q in enumerate(map(row.__getitem__, where))]
            reflections.append(tuple(up + [r - N if r >= N else r + N for r in up]))
        self.simple_reflections = tuple(reflections)

    @cached_property
    def all_roots(self) -> tuple:
        """Every root, sorted by simple coordinates (built on first access)."""
        return tuple(sorted(self.indexed_roots, key=lambda r: r.simple_coords))

    # -- lookups -----------------------------------------------------------

    def is_root(self, omega: Weight) -> bool:
        return tuple(omega) in self.root_index

    @property
    def num_t_classes(self) -> int:
        return len(self.t_vectors)

    def t_weight(self, i: int) -> Weight:
        """The class t_i (1-based) in weight coordinates."""
        if not 1 <= i <= self.num_t_classes:
            raise OutOfRangeError(f"t-class index {i} out of range")
        return self.t_vectors[i - 1]

    def __repr__(self):
        return f"RootDatum({self.cartan_type})"


def build_root_datum(ct: CartanType) -> RootDatum:
    """Construct the root datum for a supported Cartan type."""
    return RootDatum(ct)


def elem_sym_t(datum: RootDatum, l: int, m: int) -> Polynomial:
    """Elementary symmetric polynomial e_l(t_1, ..., t_m) in weight variables."""
    if not 1 <= m <= datum.num_t_classes:
        raise OutOfRangeError(f"m={m} out of range for {datum.cartan_type}")
    if not 0 <= l <= m:
        raise OutOfRangeError(f"l={l} out of range for m={m}")
    n = datum.rank
    # e[j] accumulates e_j(t_1, ..., t_i) while i runs over the first m classes.
    e = [Polynomial.one(n)] + [Polynomial.zero(n) for _ in range(l)]
    for i in range(1, m + 1):
        t = Polynomial.linear_form(datum.t_classes[f"t{i}"])
        for j in range(min(i, l), 0, -1):
            e[j] = e[j] + e[j - 1] * t
    return e[l]
