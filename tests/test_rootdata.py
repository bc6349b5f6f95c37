from fractions import Fraction
from math import gcd

import pytest

from flagcalc.errors import NotARootError, OutOfRangeError, UnsupportedRankError
from flagcalc.polyring import Polynomial
from flagcalc.rootdata import (
    MAX_CLASSICAL_RANK,
    Root,
    build_root_datum,
    cartan_type,
    elem_sym_t,
)

from conftest import coroot_pairing


def test_rank_constraints():
    with pytest.raises(UnsupportedRankError):
        cartan_type("B", 1)
    with pytest.raises(UnsupportedRankError):
        cartan_type("D", 3)
    with pytest.raises(UnsupportedRankError):
        cartan_type("G2", 3)
    with pytest.raises(UnsupportedRankError):
        cartan_type("F4", 5)
    with pytest.raises(UnsupportedRankError):
        cartan_type("E8", 8)
    assert cartan_type("B", 2).name == "B2"
    assert cartan_type("G2").name == "G2"


def test_classical_rank_cap():
    assert cartan_type("B", MAX_CLASSICAL_RANK).rank == MAX_CLASSICAL_RANK
    assert cartan_type("D", MAX_CLASSICAL_RANK).rank == MAX_CLASSICAL_RANK
    for family in ("B", "D"):
        for rank in (MAX_CLASSICAL_RANK + 1, 100000):
            with pytest.raises(UnsupportedRankError, match="at most"):
                cartan_type(family, rank)


@pytest.mark.parametrize(
    "family,rank", [("B", 3), ("B", 12), ("D", 5), ("G2", None), ("F4", None)]
)
def test_simple_reflections_permute_root_indices(family, rank):
    # roots are numbered positive first, then -beta_b at N + b, and s_i sends
    # root r to r - <r, alpha_i^vee> alpha_i
    d = build_root_datum(cartan_type(family, rank))
    N = d.num_positive_roots
    roots = d.indexed_roots
    assert roots[:N] == d.positive_roots
    assert set(roots) == set(d.all_roots)
    for b in range(N):
        assert roots[N + b].omega == tuple(-x for x in roots[b].omega)
    assert all(d.root_index[r.omega] == k for k, r in enumerate(roots))
    assert tuple(roots[k] for k in d.simple_indices) == d.simple_roots
    for i, perm in enumerate(d.simple_reflections):
        alpha = d.simple_roots[i].omega
        assert sorted(perm) == list(range(2 * N))
        for r, image in zip(roots, perm):
            want = tuple(x - r.omega[i] * a for x, a in zip(r.omega, alpha))
            assert roots[image].omega == want


@pytest.mark.parametrize(
    "family,rank,expected",
    [("B", 2, 4), ("B", 3, 9), ("B", 5, 25), ("D", 4, 12), ("D", 5, 20),
     ("G2", 2, 6), ("F4", 4, 24)],
)
def test_positive_root_counts(family, rank, expected):
    d = build_root_datum(cartan_type(family, rank))
    assert d.num_positive_roots == expected
    assert len(d.positive_roots) == expected
    assert len(d.all_roots) == 2 * expected


def test_cartan_matrix_columns_are_simple_roots():
    for family, rank in (("B", 4), ("D", 5), ("G2", 2), ("F4", 4)):
        d = build_root_datum(cartan_type(family, rank))
        M = d.cartan_matrix
        for j in range(d.rank):
            col = tuple(M[i][j] for i in range(d.rank))
            assert d.simple_roots[j].omega == col
        for i in range(d.rank):
            assert M[i][i] == 2
            assert all(M[i][j] <= 0 for j in range(d.rank) if j != i)


def test_t_basis_b3():
    d = build_root_datum(cartan_type("B", 3))
    assert d.t_vectors == ((1, 0, 0), (-1, 1, 0), (0, -1, 2))
    assert list(d.t_classes) == ["t1", "t2", "t3"]
    assert tuple(d.t_classes.values()) == d.t_vectors


def test_t_basis_g2():
    d = build_root_datum(cartan_type("G2"))
    assert d.t_weight(1) == (-1, 0)
    assert d.t_weight(2) == (-1, 1)
    assert d.t_weight(3) == (2, -1)
    assert d.t_classes == {"t1": (-1, 0), "t2": (-1, 1), "t3": (2, -1)}
    assert list(d.t_classes) == ["t1", "t2", "t3"]


def test_t_basis_f4():
    d = build_root_datum(cartan_type("F4"))
    assert d.t_vectors == (
        (0, 0, 0, -1),
        (1, 0, 0, -1),
        (-1, 1, 0, -1),
        (0, -1, 2, -1),
    )
    assert d.extra_t == (0, 0, 1, -2)
    assert list(d.t_classes) == ["t1", "t2", "t3", "t4", "t"]
    assert tuple(d.t_classes.values()) == d.t_vectors + (d.extra_t,)
    # t = c_1 / 2
    c1 = elem_sym_t(d, 1, 4)
    assert c1 == Polynomial.linear_form(d.t_classes["t"]) * 2


def test_t_basis_d5():
    d = build_root_datum(cartan_type("D", 5))
    assert d.t_weight(4) == (0, 0, -1, 1, 1)
    assert d.t_weight(5) == (0, 0, 0, -1, 1)
    assert list(d.t_classes) == ["t1", "t2", "t3", "t4", "t5"]
    assert tuple(d.t_classes.values()) == d.t_vectors
    assert d.t_classes["t4"] == d.t_weight(4)


def _t_vectors_by_loops(family, n):
    """The B and D t-classes written out entry by entry, as a reference."""
    ts = [(1,) + (0,) * (n - 1)]
    for i in range(1, n - 1 if family == "B" else n - 2):
        v = [0] * n
        v[i - 1], v[i] = -1, 1
        ts.append(tuple(v))
    v = [0] * n
    if family == "B":
        v[n - 2], v[n - 1] = -1, 2
        ts.append(tuple(v))
    else:
        v[n - 3], v[n - 2], v[n - 1] = -1, 1, 1
        ts.append(tuple(v))
        v = [0] * n
        v[n - 2], v[n - 1] = -1, 1
        ts.append(tuple(v))
    return tuple(ts)


@pytest.mark.parametrize(
    "family,rank", [("B", n) for n in range(2, 31)] + [("D", n) for n in range(4, 31)]
)
def test_bd_t_classes_match_the_written_out_vectors(family, rank):
    d = build_root_datum(cartan_type(family, rank))
    assert d.t_vectors == _t_vectors_by_loops(family, rank)
    assert all(type(x) is int for t in d.t_vectors for x in t)
    assert d.extra_t is None


def test_simple_roots_in_t_coordinates_bd():
    # alpha_i = t_i - t_{i+1} for i < n; alpha_n = t_n (B) or t_{n-1} + t_n (D)
    for family, rank in (("B", 4), ("D", 4)):
        d = build_root_datum(cartan_type(family, rank))
        ts = [d.t_weight(i) for i in range(1, rank + 1)]
        for i in range(rank - 1):
            want = tuple(a - b for a, b in zip(ts[i], ts[i + 1]))
            assert d.simple_roots[i].omega == want
        if family == "B":
            assert d.simple_roots[rank - 1].omega == ts[rank - 1]
        else:
            want = tuple(a + b for a, b in zip(ts[rank - 2], ts[rank - 1]))
            assert d.simple_roots[rank - 1].omega == want


def test_fundamental_weights_in_t_coordinates_b():
    # omega_i = t_1 + ... + t_i for i < n; omega_n = (t_1 + ... + t_n)/2
    n = 4
    d = build_root_datum(cartan_type("B", n))
    ts = [d.t_weight(i) for i in range(1, n + 1)]
    for i in range(1, n):
        want = tuple(sum(t[r] for t in ts[:i]) for r in range(n))
        assert d.fundamental_weights[i - 1] == want
    want = tuple(Fraction(sum(t[r] for t in ts), 2) for r in range(n))
    assert tuple(Fraction(x) for x in d.fundamental_weights[n - 1]) == want


def test_f4_positive_roots_match_t_multiset_up_to_sign():
    # The classical list {t_i +- t_j, t_i, (t_1 +- t_2 +- t_3 +- t_4)/2} agrees
    # with the reflection closure root by root, up to the sign of each root.
    d = build_root_datum(cartan_type("F4"))
    ts = [d.t_weight(i) for i in range(1, 5)]

    def comb(coeffs):
        return tuple(
            sum(Fraction(c) * t[r] for c, t in zip(coeffs, ts)) for r in range(4)
        )

    classical = []
    for i in range(4):
        for j in range(i + 1, 4):
            for sj in (1, -1):
                coeffs = [0] * 4
                coeffs[i], coeffs[j] = 1, sj
                classical.append(comb(coeffs))
    for i in range(4):
        coeffs = [0] * 4
        coeffs[i] = 1
        classical.append(comb(coeffs))
    for s2 in (1, -1):
        for s3 in (1, -1):
            for s4 in (1, -1):
                classical.append(
                    comb([Fraction(1, 2), Fraction(s2, 2), Fraction(s3, 2), Fraction(s4, 2)])
                )
    assert len(classical) == 24

    def normalize(v):
        for x in v:
            if x:
                return v if x > 0 else tuple(-y for y in v)
        return v

    ours = sorted(normalize(tuple(Fraction(x) for x in r.omega)) for r in d.positive_roots)
    theirs = sorted(normalize(v) for v in classical)
    assert ours == theirs


def test_root_lengths_normalized():
    d = build_root_datum(cartan_type("G2"))
    lengths = sorted({r.length_sq for r in d.positive_roots})
    assert lengths == [Fraction(2, 3), 2]
    d = build_root_datum(cartan_type("F4"))
    assert sorted({r.length_sq for r in d.positive_roots}) == [1, 2]
    d = build_root_datum(cartan_type("B", 3))
    assert sorted({r.length_sq for r in d.positive_roots}) == [1, 2]
    d = build_root_datum(cartan_type("D", 4))
    assert sorted({r.length_sq for r in d.positive_roots}) == [2]


@pytest.mark.parametrize(
    "family,rank", [("G2", None), ("F4", None), ("B", 3), ("B", 6), ("D", 4), ("D", 5)]
)
def test_roots_built_once_with_integer_coroots(family, rank):
    d = build_root_datum(cartan_type(family, rank))
    built = {id(r) for r in d.all_roots}
    assert all(id(r) in built for r in d.indexed_roots + d.simple_roots)
    for r in d.all_roots:
        # the Fraction formulas: |beta|^2 = sum m_i omega_i |alpha_i|^2 / 2 and
        # beta^vee = sum (m_i |alpha_i|^2 / |beta|^2) alpha_i^vee
        lsq = sum(
            Fraction(m) * o * a for m, o, a in zip(r.simple_coords, r.omega, d.simple_length_sq)
        ) / 2
        assert r.length_sq == lsq
        assert type(r.length_sq) is (int if lsq.denominator == 1 else Fraction)
        assert r.coroot_on_omega == tuple(
            Fraction(m) * a / lsq for m, a in zip(r.simple_coords, d.simple_length_sq)
        )
        assert all(type(c) is int for c in r.coroot_on_omega)
        assert sum(c * o for c, o in zip(r.coroot_on_omega, r.omega)) == 2


def _bfs_closure(d):
    """The root tables by the breadth-first closure over all roots, as a
    reference: every root from the simple roots in simple coordinates, with
    its weight coordinates by a full Cartan-matrix product and each image
    under each s_i met on the way.

    Returns (indexed_roots, root_index, simple_reflections, all_roots), each
    numbered and ordered as ``RootDatum`` numbers and orders them.
    """
    n, M = d.rank, d.cartan_matrix
    order = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    found = {m: p for p, m in enumerate(order)}
    omegas, images = [], [[] for _ in range(n)]
    for p, m in enumerate(order):
        omega = tuple(sum(a * b for a, b in zip(row, m)) for row in M)
        omegas.append(omega)
        for i, c in enumerate(omega):
            q = p
            if c:
                m2 = m[:i] + (m[i] - c,) + m[i + 1:]
                q = found.get(m2)
                if q is None:
                    q = found[m2] = len(order)
                    order.append(m2)
            images[i].append(q)
    denom = 1
    for x in d.simple_length_sq:
        denom = denom * Fraction(x).denominator // gcd(denom, Fraction(x).denominator)
    sym = [int(x * denom) for x in d.simple_length_sq]

    def make_root(m, omega):
        norm = sum(a * b * s for a, b, s in zip(m, omega, sym))
        lsq = Fraction(norm, 2 * denom)
        lsq = int(lsq) if lsq.denominator == 1 else lsq
        return Root(m, omega, lsq, tuple(2 * a * s // norm for a, s in zip(m, sym)))

    roots = [make_root(m, o) for m, o in zip(order, omegas)]
    positive = sorted(
        (p for p, m in enumerate(order) if max(m) > 0), key=lambda p: (sum(order[p]), order[p])
    )
    where = positive + [found[tuple(-x for x in order[p])] for p in positive]
    index = [0] * len(order)
    for k, p in enumerate(where):
        index[p] = k
    indexed = tuple(roots[p] for p in where)
    reflections = tuple(tuple(index[row[p]] for p in where) for row in images)
    return (
        indexed,
        {r.omega: k for k, r in enumerate(indexed)},
        reflections,
        tuple(sorted(roots, key=lambda r: r.simple_coords)),
    )


@pytest.mark.parametrize(
    "family,rank",
    [("G2", None), ("F4", None)]
    + [("B", n) for n in range(2, 13)]
    + [("D", n) for n in range(4, 13)],
)
def test_positive_closure_matches_the_full_bfs_closure(family, rank):
    d = build_root_datum(cartan_type(family, rank))
    indexed, root_index, reflections, all_roots = _bfs_closure(d)
    assert d.indexed_roots == indexed
    assert [type(r.length_sq) for r in d.indexed_roots] == [type(r.length_sq) for r in indexed]
    assert [r.coroot_on_omega for r in d.indexed_roots] == [r.coroot_on_omega for r in indexed]
    assert d.root_index == root_index
    assert d.simple_reflections == reflections
    assert d.all_roots == all_roots
    assert d.positive_roots == indexed[: d.num_positive_roots]
    assert d.simple_indices == tuple(root_index[r.omega] for r in d.simple_roots)


def test_all_roots_is_built_on_first_access():
    d = build_root_datum(cartan_type("B", 5))
    assert "all_roots" not in vars(d)
    assert len(d.all_roots) == 50
    assert vars(d)["all_roots"] is d.all_roots


class TestCorootPairing:
    def test_delta_ij_on_simples(self):
        d = build_root_datum(cartan_type("F4"))
        for i in range(1, 5):
            for j in range(1, 5):
                val = coroot_pairing(d, d.simple_roots[i - 1], d.fundamental_weights[j - 1])
                assert val == (1 if i == j else 0)

    def test_zero_weight(self):
        d = build_root_datum(cartan_type("B", 3))
        for beta in d.positive_roots:
            assert coroot_pairing(d, beta, (0, 0, 0)) == 0

    def test_f4_highest_root(self):
        # Brute force: the highest root maximizes the simple-coordinate sum.
        # Its coroot pairings with the fundamental weights are the comarks
        # (2, 3, 2, 1), whose sum plus one gives the dual Coxeter number 9.
        d = build_root_datum(cartan_type("F4"))
        theta = max(d.positive_roots, key=lambda r: sum(r.simple_coords))
        assert theta.simple_coords == (2, 3, 4, 2)
        comarks = tuple(
            coroot_pairing(d, theta, om) for om in d.fundamental_weights
        )
        assert comarks == (2, 3, 2, 1)
        assert sum(comarks) + 1 == 9

    def test_positive_pairings_with_weights(self):
        for family, rank in (("B", 4), ("D", 4), ("G2", 2), ("F4", 4)):
            d = build_root_datum(cartan_type(family, rank))
            for beta in d.positive_roots:
                for omega in d.fundamental_weights:
                    val = coroot_pairing(d, beta, omega)
                    assert isinstance(val, int) and val >= 0

    def test_not_a_root(self):
        d = build_root_datum(cartan_type("B", 2))
        fake = d.positive_roots[0]
        d2 = build_root_datum(cartan_type("G2"))
        with pytest.raises(NotARootError):
            coroot_pairing(d2, fake, (0, 0))


class TestElemSym:
    def test_c0_is_one(self):
        d = build_root_datum(cartan_type("B", 3))
        for m in (1, 2, 3):
            assert elem_sym_t(d, 0, m) == Polynomial.one(3)

    def test_g2_c3(self):
        d = build_root_datum(cartan_type("G2"))
        want = Polynomial(
            2, {(3, 0): 2, (2, 1): -3, (1, 2): 1}
        )
        assert elem_sym_t(d, 3, 3) == want

    def test_f4_c1_equals_2t(self):
        d = build_root_datum(cartan_type("F4"))
        assert elem_sym_t(d, 1, 4) == Polynomial.linear_form((0, 0, 2, -4))

    def test_out_of_range(self):
        d = build_root_datum(cartan_type("B", 3))
        with pytest.raises(OutOfRangeError):
            elem_sym_t(d, 4, 3)
        with pytest.raises(OutOfRangeError):
            elem_sym_t(d, 1, 4)
        with pytest.raises(OutOfRangeError):
            elem_sym_t(d, -1, 2)
