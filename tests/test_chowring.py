import gc
import random
import re
import weakref
from dataclasses import dataclass
from math import gcd

import pytest

from flagcalc import chowring, cli, weylgroup
from flagcalc.chowring import (
    VARIANTS,
    ChowComputation,
    CokernelStratum,
    _stratum_columns,
    chow_groups,
    chow_presentation,
    chow_to_json,
    presentation_strata,
    verify_chow,
)
from flagcalc.errors import OutOfRangeError
from flagcalc.polyring import Polynomial
from flagcalc.presentations import VerificationReport
from flagcalc.rootdata import cartan_type, elem_sym_t
from flagcalc.schubert import SchubertCalc, SchubertExpansion, calculus_for

from conftest import word


# ---------------------------------------------------------------------------
# Dense Smith normal form with unimodular transforms: the test oracle that
# CokernelStratum is checked against.
# ---------------------------------------------------------------------------


class _RowOps:
    """Record of elementary row operations, replayable on any vector."""

    def __init__(self):
        self.ops = []

    def swap(self, A, i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            self.ops.append(("swap", i, j, 0))

    def negate(self, A, i):
        A[i] = [-x for x in A[i]]
        self.ops.append(("neg", i, 0, 0))

    def addmul(self, A, i, j, q):
        # row_i += q * row_j
        if q:
            A[i] = [x + q * y for x, y in zip(A[i], A[j])]
            self.ops.append(("add", i, j, q))

    def apply(self, vec: list) -> list:
        v = list(vec)
        for kind, i, j, q in self.ops:
            if kind == "swap":
                v[i], v[j] = v[j], v[i]
            elif kind == "neg":
                v[i] = -v[i]
            else:
                v[i] += q * v[j]
        return v


def _snf_inplace(A: list, rowops: _RowOps, colops: _RowOps) -> list:
    """Reduce A to Smith normal form in place; returns the full diagonal.

    Pivots are chosen with minimal absolute value to control entry growth.
    """
    m = len(A)
    n = len(A[0]) if m else 0

    def col_swap(c1, c2):
        if c1 != c2:
            for row in A:
                row[c1], row[c2] = row[c2], row[c1]
            colops.ops.append(("swap", c1, c2, 0))

    def col_addmul(c1, c2, q):
        # col_c1 += q * col_c2
        if q:
            for row in A:
                row[c1] += q * row[c2]
            colops.ops.append(("add", c1, c2, q))

    def diagonalize(t0: int):
        t = t0
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = A[i][j]
                    if v and (best is None or abs(v) < best):
                        best = abs(v)
                        pivot = (i, j)
                        if best == 1:
                            break
                if best == 1:
                    break
            if pivot is None:
                return
            rowops.swap(A, t, pivot[0])
            col_swap(t, pivot[1])
            while True:
                dirty = False
                for i in range(t + 1, m):
                    if A[i][t]:
                        q = A[i][t] // A[t][t]
                        rowops.addmul(A, i, t, -q)
                        if A[i][t]:
                            rowops.swap(A, t, i)
                            dirty = True
                if dirty:
                    continue
                for j in range(t + 1, n):
                    if A[t][j]:
                        q = A[t][j] // A[t][t]
                        col_addmul(j, t, -q)
                        if A[t][j]:
                            col_swap(t, j)
                            dirty = True
                if dirty:
                    continue
                break
            t += 1

    diagonalize(0)
    r = min(m, n)
    for i in range(r):
        if A[i][i] < 0:
            rowops.negate(A, i)
    # Enforce the divisibility chain d_i | d_{i+1}.
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise AssertionError("divisibility chain failed to stabilize")
        bad = None
        for i in range(r - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a and b and b % a:
                bad = i
                break
        if bad is None:
            break
        col_addmul(bad, bad + 1, 1)
        diagonalize(bad)
        for i in range(bad, r):
            if A[i][i] < 0:
                rowops.negate(A, i)
    return [A[k][k] for k in range(r)]


@dataclass
class SmithResult:
    diagonal: list  # full min(m,n) diagonal including zeros
    U: list  # row transform
    V: list  # column transform, U*M*V = D

    @property
    def invariant_factors(self) -> list:
        return [d for d in self.diagonal if d]


def smith_normal_form(entries: list) -> SmithResult:
    """Smith normal form of a list of equal-length rows, U*M*V = D."""
    m, n = len(entries), len(entries[0])
    A = [row[:] for row in entries]
    rowops = _RowOps()
    colops = _RowOps()
    diag = _snf_inplace(A, rowops, colops)
    # U e_k, over the standard basis, assembles the row-op product.
    U = [[0] * m for _ in range(m)]
    for k in range(m):
        res = rowops.apply([1 if r == k else 0 for r in range(m)])
        for r in range(m):
            U[r][k] = res[r]
    # Column ops are right multiplications; replay them on V.
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for kind, i, j, q in colops.ops:
        if kind == "swap":
            for row in V:
                row[i], row[j] = row[j], row[i]
        elif kind == "neg":
            for row in V:
                row[i] = -row[i]
        else:
            for row in V:
                row[i] += q * row[j]
    return SmithResult(diag, U, V)


def dense_of(rows: int, columns: list) -> list:
    """Dense row lists of a matrix given as sparse columns (dicts row -> entry)."""
    dense = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for r, v in col.items():
            dense[r][j] = v
    return dense


class TestSmithNormalForm:
    def test_trivial_diagonals(self):
        res = smith_normal_form([[2, 0], [0, 0]])
        assert res.invariant_factors == [2]
        assert res.diagonal == [2, 0]
        res = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert res.invariant_factors == [1, 1, 1]

    def test_hand_elimination_case(self):
        # [[2,4],[6,8]]: gcd of entries 2, determinant -8, factors 2 and 4
        res = smith_normal_form([[2, 4], [6, 8]])
        assert res.invariant_factors == [2, 4]

    @staticmethod
    def _det(matrix):
        from fractions import Fraction

        a = [[Fraction(x) for x in row] for row in matrix]
        n = len(a)
        det = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                det = -det
            det *= a[c][c]
            for r in range(c + 1, n):
                factor = a[r][c] / a[c][c]
                a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
        return det

    def test_transforms_and_chain_random(self):
        rng = random.Random(30)
        for _ in range(60):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            res = smith_normal_form(M)
            assert abs(self._det(res.U)) == 1
            assert abs(self._det(res.V)) == 1
            UM = [
                [sum(res.U[i][k] * M[k][j] for k in range(m)) for j in range(n)]
                for i in range(m)
            ]
            D = [
                [sum(UM[i][k] * res.V[k][j] for k in range(n)) for j in range(n)]
                for i in range(m)
            ]
            for i in range(m):
                for j in range(n):
                    want = res.diagonal[i] if i == j and i < len(res.diagonal) else 0
                    assert D[i][j] == want
            f = res.invariant_factors
            assert all(b % a == 0 for a, b in zip(f, f[1:]))

    def test_invariant_under_shuffles(self):
        rng = random.Random(31)
        base = [[rng.randint(-4, 4) for _ in range(7)] for _ in range(5)]
        reference = smith_normal_form(base).invariant_factors
        for _ in range(10):
            rows = base[:]
            rng.shuffle(rows)
            cols = list(range(7))
            rng.shuffle(cols)
            shuffled = [[row[c] for c in cols] for row in rows]
            got = smith_normal_form(shuffled).invariant_factors
            assert got == reference


class TestCokernelStratum:
    def test_matches_dense_snf(self):
        rng = random.Random(32)
        for _ in range(40):
            rows = rng.randint(1, 8)
            ncols = rng.randint(1, 10)
            cols = []
            for _ in range(ncols):
                col = {
                    r: rng.randint(-3, 3)
                    for r in rng.sample(range(rows), rng.randint(0, rows))
                }
                cols.append({r: v for r, v in col.items() if v})
            coker = CokernelStratum(rows, cols)
            res = smith_normal_form(dense_of(rows, cols))
            want = sorted(d for d in res.invariant_factors if d > 1)
            assert coker.invariant_factors == res.invariant_factors
            assert coker.torsion == want
            assert coker.free_rank == rows - len(res.invariant_factors)

    @pytest.mark.parametrize(
        "fixture,variants,top",
        [
            ("calc_g2", ("simply_connected",), 6),
            ("calc_b3", ("simply_connected", "special_orthogonal"), 9),
            ("calc_d4", ("simply_connected", "special_orthogonal"), 6),
        ],
        ids=["G2", "B3", "D4"],
    )
    def test_real_strata_match_dense_snf(self, fixture, variants, top, request):
        # the pivot order depends on the column order, which random matrices
        # barely exercise; the stratum columns have real lengths and overlaps
        calc = request.getfixturevalue(fixture)
        for variant in variants:
            for k in range(1, top + 1):
                classes, columns = _stratum_columns(calc, variant, k)
                rows = len(classes)
                coker = CokernelStratum(rows, columns)
                res = smith_normal_form(dense_of(rows, columns))
                assert coker.invariant_factors == res.invariant_factors, (variant, k)
                for col in columns:
                    vec = [0] * rows
                    for r, v in col.items():
                        vec[r] = v
                    assert coker.is_zero_class(vec), (variant, k, col)

    def test_dense_step_on_every_row(self):
        # the entries have no common factor, so the units are +-1; no entry is
        # one, so the unit phase pivots on no row and the whole matrix
        # reaches the dense Smith step; the sparse general phase is the
        # reference for its class map
        rng = random.Random(35)
        values = (2, 3, 4, 6, -2, -3, -4, -6)
        for _ in range(60):
            content = 2
            while content > 1:
                rows = rng.randint(1, 8)
                cols = [
                    {r: rng.choice(values) for r in rng.sample(range(rows), rng.randint(0, rows))}
                    for _ in range(rng.randint(1, 10))
                ]
                content = gcd(*(v for col in cols for v in col.values()))
            coker = CokernelStratum(rows, cols)
            assert coker._left == list(range(rows)) and not coker._subs
            res = smith_normal_form(dense_of(rows, cols))
            assert coker.invariant_factors == res.invariant_factors
            ref = GeneralPhaseOnly(rows, cols)
            for _ in range(10):
                # a random vector, and a random point of the image moved by it
                vec = [rng.randint(-12, 12) for _ in range(rows)]
                image = [0] * rows
                for col in cols:
                    q = rng.randint(-3, 3)
                    for r, v in col.items():
                        image[r] += q * v
                k = rng.choice((0, 1, 2, 3))
                for x in (vec, image, [a + k * b for a, b in zip(image, vec)]):
                    assert coker.class_order(x) == ref.class_order(x)
                    assert coker.is_zero_class(x) == ref.is_zero_class(x)
                assert coker.is_zero_class(image)

    def test_classify_detects_ideal_vectors(self):
        rng = random.Random(33)
        cols = [{0: 2, 1: 1}, {1: 3}]
        coker = CokernelStratum(3, cols)
        # both columns are in the image
        assert coker.is_zero_class([2, 1, 0])
        assert coker.is_zero_class([0, 3, 0])
        assert coker.is_zero_class([2, 4, 0])
        # e_2 generates a free summand
        assert coker.class_order([0, 0, 1]) == 0


def sparse_eliminate(rows: list, cols: list, rowops: list) -> tuple:
    """The general phase: diagonalise cols (dicts row -> entry) on rows.

    Appends its row operations to rowops and returns (pivots, free rows):
    the pivots as pairs (row, |pivot|) in retirement order, and the rows,
    sorted, that never held one.
    """
    cols.sort(key=len)
    col_of_row: dict = {r: set() for r in rows}
    for ci, d in enumerate(cols):
        for r in d:
            col_of_row[r].add(ci)
    alive = set(range(len(cols)))
    pivots = []

    while True:
        units = ((ci, r, v) for ci in alive for r, v in cols[ci].items() if v == 1 or v == -1)
        found = next(units, None)
        if found is None:
            entries = ((ci, r, v) for ci in alive for r, v in cols[ci].items())
            found = min(entries, key=lambda entry: abs(entry[2]), default=None)
            if found is None:
                break
        ci, r, v = found
        pivot_col = cols[ci]
        # Column: row_r2 -= (a // v) * row_r leaves a % v at (r2, ci).
        for r2 in [x for x in pivot_col if x != r]:
            q = -(pivot_col[r2] // v)
            rowops.append((r2, r, q))
            for cj in list(col_of_row[r]):
                d = cols[cj]
                nv = d.get(r2, 0) + q * d[r]
                if nv:
                    d[r2] = nv
                    col_of_row[r2].add(cj)
                elif r2 in d:
                    del d[r2]
                    col_of_row[r2].discard(cj)
        # Row: col_cj -= (b // v) * col_ci leaves b % v at (r, cj).
        rest = [(r2, a) for r2, a in pivot_col.items() if r2 != r]
        for cj in list(col_of_row[r]):
            if cj == ci:
                continue
            d = cols[cj]
            b = d.pop(r)
            if b % v:
                d[r] = b % v
            else:
                col_of_row[r].discard(cj)
            q = b // v
            for r2, a in rest:
                nv = d.get(r2, 0) - q * a
                if nv:
                    d[r2] = nv
                    col_of_row[r2].add(cj)
                elif r2 in d:
                    del d[r2]
                    col_of_row[r2].discard(cj)
            if not d:
                alive.discard(cj)
        if not rest and len(col_of_row[r]) == 1:
            alive.discard(ci)
            del col_of_row[r]
            pivots.append((r, abs(v)))
    return pivots, sorted(col_of_row)


class GeneralPhaseOnly(CokernelStratum):
    """The sparse general phase alone on the whole matrix.

    The reference for both the unit phase and the dense Smith step.  Its
    rows are all rows, so the sparse phase's row numbers are the indices
    that classify reads.
    """

    @staticmethod
    def _unit_phase(rows, columns, g):
        return {}, [{r: v for r, v in col.items() if v} for col in columns]

    _eliminate = staticmethod(sparse_eliminate)


# every stratum of these engines; the dense oracle where the matrix is small
UNIT_PHASE_CASES = [
    ("calc_g2", ("simply_connected",)),
    ("calc_b3", ("simply_connected", "special_orthogonal")),
    ("calc_b4", ("simply_connected", "special_orthogonal")),
    ("calc_d4", ("simply_connected", "special_orthogonal")),
    ("calc_f4", ("simply_connected",)),
    ("calc_d5", ("simply_connected", "special_orthogonal")),
]
DENSE_MAX_ENTRIES = 40_000


class TestUnitPhase:
    @pytest.mark.parametrize(
        "fixture,variants", UNIT_PHASE_CASES, ids=[f[5:].upper() for f, _ in UNIT_PHASE_CASES]
    )
    def test_every_stratum_matches_the_general_phase(self, fixture, variants, request):
        # pivot rows may differ between the two, the invariant factors and
        # the class map up to isomorphism may not
        calc = request.getfixturevalue(fixture)
        rng = random.Random(34)
        dense_checked = 0
        for variant in variants:
            for k in range(1, calc.group.longest_length + 1):
                classes, columns = _stratum_columns(calc, variant, k)
                rows = len(classes)
                coker = CokernelStratum(rows, columns)
                ref = GeneralPhaseOnly(rows, columns)
                assert coker.invariant_factors == ref.invariant_factors, (variant, k)
                assert (coker.torsion, coker.free_rank) == (ref.torsion, ref.free_rank)
                if rows * len(columns) <= DENSE_MAX_ENTRIES:
                    res = smith_normal_form(dense_of(rows, columns))
                    assert coker.invariant_factors == res.invariant_factors, (variant, k)
                    dense_checked += 1
                # every Schubert class of the stratum, then random vectors
                vectors = [[int(r == i) for r in range(rows)] for i in range(rows)]
                vectors += [[rng.randint(-3, 3) for _ in range(rows)] for _ in range(20)]
                for vec in vectors:
                    assert coker.class_order(vec) == ref.class_order(vec), (variant, k)
                    assert coker.is_zero_class(vec) == ref.is_zero_class(vec)
                for col in columns:
                    vec = [0] * rows
                    for r, v in col.items():
                        vec[r] = v
                    assert coker.is_zero_class(vec), (variant, k)
        assert dense_checked

    def test_substitutions_stay_closed(self):
        # column 0 pivots on row 0, whose substitution names row 1; column 1
        # pivots on row 1, so row 0's substitution takes in row 1's and names
        # row 2; column 2 then reduces to 3 at row 2, for the general phase,
        # and not to a second unit at row 1
        cols = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 2}]
        coker = CokernelStratum(3, cols)
        assert coker.torsion == [3] and coker.free_rank == 0
        assert smith_normal_form(dense_of(3, cols)).invariant_factors == [1, 1, 3]
        ref = GeneralPhaseOnly(3, cols)
        for vec in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, 7], [0, 0, 5]):
            assert coker.class_order(vec) == ref.class_order(vec)
            assert coker.is_zero_class(vec) == ref.is_zero_class(vec)

    def test_stops_once_every_row_holds_a_pivot(self, monkeypatch):
        # both rows pivot on the two shortest columns; the last column would
        # reduce to zero, so it is never reduced, and still classifies to zero
        late = {0: 4, 1: 6}
        cols = [{0: 1}, {1: -1}, late]
        reduced = []
        reduce = chowring._reduce

        def counting_reduce(subs, entries):
            entries = list(entries)
            reduced.append(dict(entries))
            return reduce(subs, entries)

        monkeypatch.setattr(chowring, "_reduce", counting_reduce)
        coker = CokernelStratum(2, cols)
        assert reduced == [{0: 1}, {1: -1}]
        assert coker.invariant_factors == [1, 1]
        assert (coker.torsion, coker.free_rank) == ([], 0)
        assert coker.is_zero_class([4, 6])
        ref = GeneralPhaseOnly(2, cols)
        assert ref.invariant_factors == coker.invariant_factors
        for vec in ([1, 0], [0, 1], [4, 6], [-3, 5]):
            assert coker.classify(vec) == ref.classify(vec) == ((), ())

    def test_zero_entries_and_empty_columns(self):
        coker = CokernelStratum(2, [{0: 0}, {}, {0: 2, 1: 0}])
        assert coker.torsion == [2]
        assert coker.free_rank == 1
        assert coker.class_order([1, 0]) == 2
        assert coker.class_order([0, 1]) == 0


class TestIdealStrata:
    def test_codim1_simply_connected_is_full(self, calc_f4):
        # every degree-1 class is in the ideal
        coker = ChowComputation(calc_f4, "simply_connected").stratum(1)
        assert coker.rows == 4
        assert coker.invariant_factors == [1, 1, 1, 1]
        assert coker.free_rank == 0

    def test_codim1_so_has_index_two(self, calc_b3):
        comp = ChowComputation(calc_b3, "special_orthogonal")
        coker = comp.stratum(1)
        assert coker.torsion == [2]
        assert coker.free_rank == 0
        # the order-2 class is generated by Z_n
        zn = calc_b3.indicator(calc_b3.group.simple_reflection(3))
        assert comp.class_order(zn) == 2

    def test_g2_codim3(self, calc_g2):
        comp = ChowComputation(calc_g2, "simply_connected")
        coker = comp.stratum(3)
        assert coker.torsion == [2]
        assert coker.free_rank == 0

    def test_codim0_is_z(self, calc_b3):
        # nothing of the ideal lies in codimension 0: Z_e has infinite order
        # and only the empty class is zero
        comp = ChowComputation(calc_b3, "special_orthogonal")
        coker = comp.stratum(0)
        assert (coker.rows, coker.invariant_factors) == (1, [])
        assert (coker.torsion, coker.free_rank) == ([], 1)
        unit = calc_b3.indicator(calc_b3.group.identity)
        assert comp.class_order(unit) == 0
        assert not comp.is_zero_class(unit)
        assert comp.classify(unit) == ((), (1,))
        assert comp.is_zero_class(SchubertExpansion(0, {}))
        assert comp.classify(SchubertExpansion(0, {})) == ((), (0,))

    def test_out_of_range(self, calc_g2):
        comp = ChowComputation(calc_g2, "simply_connected")
        for k in (-1, 7):
            with pytest.raises(OutOfRangeError):
                comp.stratum(k)
        with pytest.raises(ValueError):
            ChowComputation(calc_g2, "adjoint")


class TestForeignClasses:
    """Classification reads the row of a class in its stratum from a map
    keyed by element id, so a class of another group's elements is refused
    before its row is read: one of another type (D4, whose Z_3 has an id
    that B3's row map also has) and one of another B3 engine, from a group
    enumerated to its length or cold."""

    @pytest.mark.parametrize("enumerated", [False, True])
    @pytest.mark.parametrize("family,rank", [("D", 4), ("B", 3)])
    @pytest.mark.parametrize("method", ["classify", "class_order", "is_zero_class"])
    def test_raises_value_error(self, method, family, rank, enumerated):
        other = SchubertCalc(cartan_type(family, rank))
        if enumerated:
            other.group.elements_of_length(1)
        w = other.group.simple_reflection(3)
        assert len(other.group._levels) == 1 + enumerated
        comp = ChowComputation(SchubertCalc(cartan_type("B", 3)), "special_orthogonal")
        with pytest.raises(ValueError, match="Z_3 is an element of another Weyl group"):
            getattr(comp, method)(other.indicator(w))


class TestClassesOutsideAGP:
    """For B and D the strata are those of A(G/P): a class with a right
    descent other than n has no row, and is refused by name."""

    @pytest.mark.parametrize("method", ["classify", "class_order", "is_zero_class"])
    @pytest.mark.parametrize("family,rank,text", [("B", 3, "12"), ("D", 4, "1"), ("B", 3, "121")])
    def test_raises_value_error(self, method, family, rank, text):
        calc = SchubertCalc(cartan_type(family, rank))
        comp = ChowComputation(calc, "special_orthogonal")
        x = calc.indicator(word(calc, text))
        message = f"Z_{text} is outside A(G/P_{rank}): it has a right descent other than {rank}"
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(comp, method)(x)


def test_a_column_term_outside_agp_raises(monkeypatch):
    # c_i * Z_e is a sum of special classes tau_j; a term that is not one, an
    # element outside A(G/P) or a class of A(G/P) with a two-row partition,
    # is a fault, named and never dropped; the term is added to the engine's
    # Chern class of its degree
    for text in ("1", "323"):
        calc = SchubertCalc(cartan_type("B", 3))
        w = word(calc, text)
        real = calc.chern_class

        def chern_class(l):
            return real(l) + calc.indicator(w) if l == w.length else real(l)

        monkeypatch.setattr(calc, "chern_class", chern_class)
        message = f"Z_{text} is not a special class of A(G/P)"
        with pytest.raises(AssertionError, match=re.escape(message)):
            ChowComputation(calc, "special_orthogonal").stratum(w.length)


def _grassmannian_rows(calc) -> list:
    """The minimal coset representatives of W/W_J, J = {1..n-1}, by length,
    filtered from the enumerated strata."""
    g, rest = calc.group, ~(1 << (calc.rank - 1))
    strata = [g.elements_of_length(k) for k in range(g.longest_length + 1)]
    return [tuple(w for w in stratum if not w.descents & rest) for stratum in strata]


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6), ("D", 4), ("D", 5), ("D", 6),
])
def test_grassmannian_route_matches_the_full_strata(family, rank):
    # the A(G/P) strata against the A(G/B) ones of _stratum_columns, up to the
    # default limit of each form: the same nontrivial invariant factors (the
    # row counts differ, and so do the unit factors), the same order for each
    # generator class and the same answer to each power check
    _, _, runs = chowring._chow_setup(family, rank, None, None)
    calc = SchubertCalc(cartan_type(family, rank))
    g, n = calc.group, rank
    want_rows = _grassmannian_rows(calc)
    assert sum(map(len, want_rows)) == 2 ** (n if family == "B" else n - 1)
    full: dict = {}  # (variant, k) -> the A(G/B) cokernel

    def old(variant, k):
        if (variant, k) not in full:
            classes, columns = _stratum_columns(calc, variant, k) if k else ((g.identity,), [])
            full[variant, k] = CokernelStratum(len(classes), columns), classes
        return full[variant, k]

    def old_class(variant, x):
        ref, classes = old(variant, x.codim)
        vec = [0] * ref.rows
        for w, c in x.coeffs.items():
            vec[classes.index(w)] = c
        return ref, vec

    for pres, shared, limit in runs:
        variant = shared.variant
        comp = ChowComputation(calc, variant)
        for k in range(limit + 1):
            new, (ref, _) = comp.stratum(k), old(variant, k)
            assert new.rows == len(want_rows[k])
            assert [d for d in new.invariant_factors if d != 1] == [
                d for d in ref.invariant_factors if d != 1
            ], (variant, k)
            assert (new.torsion, new.free_rank) == (ref.torsion, ref.free_rank), (variant, k)
        for gen in pres.generators:
            z = calc.indicator(g.element_from_word(gen.schubert_word))
            ref, vec = old_class(variant, z)
            assert comp.class_order(z) == ref.class_order(vec) == gen.torsion
            power = z
            for e in range(2, gen.power + 1):
                if e * gen.codim > limit:
                    break
                power = calc.mul_expansions(power, z)
                ref, vec = old_class(variant, power)
                assert comp.is_zero_class(power) == ref.is_zero_class(vec) == (e >= gen.power)
                assert comp.class_order(power) == ref.class_order(vec)
    grass = chowring._grassmannian(calc)
    for k, want in enumerate(want_rows):
        got = grass.classes(g, k)
        assert len(got) == len(want) and set(got) == set(want)  # the same elements
        assert [grass._row_of[grass.partition[w.id]] for w in got] == list(range(len(got)))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("family,rank,top", [
    ("G2", None, None), ("F4", None, 6), ("B", 3, None), ("B", 4, None), ("B", 5, None),
    ("D", 4, None), ("D", 5, None),
])
def test_each_class_reads_as_the_unit_vector_at_its_row(family, rank, top, variant):
    # the route names the classes of each stratum, and vector_of(Z_w) is the
    # unit vector at the index of w among them, which for B/D is the row of
    # its partition; the strata are asked for from the top down, so a class
    # is read after the strata above it
    calc = SchubertCalc(cartan_type(family, rank))
    g = calc.group
    comp = ChowComputation(calc, variant)
    if family in ("B", "D"):
        strata = _grassmannian_rows(calc)
        grass = chowring._grassmannian(calc)
        named = grass.stratum_columns
    else:
        strata = [g.elements_of_length(k) for k in range(g.longest_length + 1)]
        named = _stratum_columns
    for k in reversed(range((top or g.longest_length) + 1)):
        classes = named(calc, variant, k)[0] if k else (g.identity,)
        assert len(classes) == len(strata[k]) and set(classes) == set(strata[k])
        assert comp.stratum(k).rows == len(classes)
        for p, w in enumerate(classes):
            unit = [int(r == p) for r in range(len(classes))]
            assert comp.vector_of(calc.indicator(w)) == unit, (k, w)
            assert comp.row[w.id] == p
            if family in ("B", "D"):
                assert grass._row_of[grass.partition[w.id]] == p


def test_grassmannian_data_dies_with_its_engine():
    # the classes, c_i and Pieri tables of A(G/P) live as long as the engine:
    # once calculus_for forgets it, nothing keeps them
    calculus_for.cache_clear()
    calc = calculus_for(cartan_type("D", 5))
    assert verify_chow("D", 5).all_passed
    data = chowring._grassmannian(calc)
    assert data._tables and len(data._specials) > 1
    ref = weakref.ref(data)
    del calc, data
    calculus_for.cache_clear()
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("family,rank", [("D", 5), ("B", 8)])
def test_one_walk_per_row_per_engine(monkeypatch, family, rank):
    # a verify_chow of both forms walks each row of each codim whose table it
    # builds once, for every strip size and both forms, also on B8, where the
    # SO strata 29-32 lie above the Spin limit (28); every walk is keyed by
    # row, and the power checks read the tables kept, adding no walk
    calculus_for.cache_clear()
    calc = calculus_for(cartan_type(family, rank))
    grass = chowring._grassmannian(calc)
    walks, keys, powers = [], [], []
    real, times = chowring._pieri, chowring._Grassmannian.times

    def counting(nu, p, table, names):
        walks.append((nu, p))
        keys.append(names)
        return real(nu, p, table, names)

    def product(self, calc, x, z):
        before = len(walks)
        got = times(self, calc, x, z)
        powers.append(len(walks) - before)
        return got

    monkeypatch.setattr(chowring, "_pieri", counting)
    monkeypatch.setattr(chowring._Grassmannian, "times", product)
    rep = verify_chow(family, rank)
    assert rep.all_passed
    size = 2 * rank + (family == "B")
    assert {c.name.split(":")[0] for c in rep.checks} == {f"Spin({size})", f"SO({size})"}
    limit = max(limit for _, _, limit in chowring._chow_setup(family, rank, None, None)[2])
    m = len(grass._labels)
    dim = m * (m + 1) // 2  # |rho_m|: stratum dim + 1 is empty
    assert set(grass._tables) == set(range(1, min(limit, dim) + 1))
    want = [(grass.partition[w.id], p) for k in grass._tables
            for p, w in enumerate(grass.classes(calc.group, k))]
    assert all(names is grass._row_of for names in keys)
    assert sorted(walks) == sorted(want) and len(set(walks)) == len(walks)
    assert powers and not any(powers)  # the power checks ran, and walked nothing
    calculus_for.cache_clear()


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6), ("D", 4), ("D", 5), ("D", 6),
])
def test_grassmannian_columns_match_the_products(family, rank):
    # every column c_i * Z_mu from the e_l(t) recursion against the Leibniz
    # product of the Schubert expansion of e_i(t_1..t_n) with Z_mu, and every
    # Spin column Z_{s_n} * Z_mu against the product with Z_{s_n}, for each
    # Grassmannian mu and i up to the default limit of each form; Spin takes
    # no c_1 column, and each c_1 * Z_mu it leaves out is twice Z_{s_n} * Z_mu
    _, _, runs = chowring._chow_setup(family, rank, None, None)
    calc = SchubertCalc(cartan_type(family, rank))
    g, n = calc.group, rank
    grass = chowring._grassmannian(calc)
    row_of, partition = grass._row_of, grass.partition
    gens = {i: calc._ids(calc.schubert_expand(elem_sym_t(calc.datum, i, n)).coeffs)
            for i in range(1, n + 1)}
    gens[0] = {g.simple_reflection(n).id: 1}
    checked = 0
    for _, comp, limit in runs:
        spin = comp.variant == "simply_connected"
        for k in range(1, limit + 1):
            classes, columns = grass.stratum_columns(calc, comp.variant, k)
            assert classes == grass.classes(g, k)
            top = min(n, k) + 1
            want = [
                {row_of[partition[v]]: c for v, c in calc._times(gens[i], {mu.id: 1}).items()}
                for i in ((0, *range(2, top)) if spin else range(1, top))
                for mu in grass.classes(g, k - max(i, 1))
            ] if classes else []
            assert columns == want, (comp.variant, k)
            checked += len(columns)
            for mu in grass.classes(g, k - 1) if spin else ():
                tau = calc._times(gens[0], {mu.id: 1})
                assert calc._times(gens[1], {mu.id: 1}) == {v: 2 * c for v, c in tau.items()}
    assert checked


@pytest.mark.parametrize("family,rank", [("B", 6), ("D", 7)])
def test_spin_strata_build_no_c1_column(family, rank):
    # P_n is maximal, so A^1(G/P) = Z tau_1 and c_1 * Z_mu is a multiple of
    # the column Z_{s_n} * Z_mu = tau_1 * Z_mu: a Spin run builds no c_1 column,
    # so it never asks for c_1; its columns read the table of each codim up
    # to the limit, strip 1 for tau_1
    [(_, _, limit)] = chowring._chow_setup(family, rank, "simply_connected", None)[2]
    calc = SchubertCalc(cartan_type(family, rank))
    chow_groups(calc, "simply_connected", limit)
    grass = chowring._grassmannian(calc)
    assert set(grass._specials) == set(range(2, min(rank, limit) + 1))
    dim = len(grass._labels) * (len(grass._labels) + 1) // 2  # |rho_m|
    assert set(grass._tables) == set(range(1, min(limit, dim) + 1))


@pytest.mark.parametrize("family,rank", [("B", 8), ("D", 8)])
def test_so_strata_send_no_row_to_the_dense_step(family, rank):
    # every SO column c_i * Z_mu is even, c_i * Z_e being 2 tau_i; with
    # content 2 the units are the entries +-2, the unit phase pivots on every
    # row of every stratum above codim 0, and each pivot is a Z/2 summand
    [(_, comp, limit)] = chowring._chow_setup(family, rank, "special_orthogonal", None)[2]
    for k in range(1, limit + 1):
        coker = comp.stratum(k)
        assert (coker._g, coker._left, coker._rowops) == (2, [], []), k
        assert coker.moduli == (2,) * coker.rows == tuple(coker.torsion), k


@pytest.mark.parametrize("family,rank", [("B", 4), ("D", 5)])
def test_the_unit_phase_reads_the_columns_as_given(monkeypatch, family, rank):
    # an SO stratum has content 2 and no divided copy: its unit phase gets
    # the caller's column dicts themselves, and pivots on the entries +-2
    calc = SchubertCalc(cartan_type(family, rank))
    grass = chowring._grassmannian(calc)
    real, seen = CokernelStratum._unit_phase, []

    def recording(rows, columns, *content):
        seen.append(list(columns))
        return real(rows, columns, *content)

    monkeypatch.setattr(CokernelStratum, "_unit_phase", staticmethod(recording))
    k = 1
    while True:
        classes, columns = grass.stratum_columns(calc, "special_orthogonal", k)
        if not classes:
            break
        seen.clear()
        coker = CokernelStratum(len(classes), columns)
        [got] = seen
        assert len(got) == len(columns) and all(a is b for a, b in zip(got, columns)), k
        assert coker._g == 2 and coker.moduli == (2,) * len(classes), k
        k += 1
    assert k == 11  # |rho_4| + 1: every stratum of A(G/P) was built


def _walk(family, rank):
    """A fresh engine, its _Grassmannian walked to the top, and the class of
    each strict partition."""
    calc = SchubertCalc(cartan_type(family, rank))
    grass = chowring._grassmannian(calc)
    k = 0
    while grass.classes(calc.group, k):
        k += 1
    named = {lam: calc.group._by_id[v] for v, lam in grass.partition.items()}
    return calc, grass, named


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6), ("D", 4), ("D", 5), ("D", 6),
])
def test_the_partition_walk_is_onto_the_grassmannian_classes(family, rank):
    # the labelled walk from the identity gives, length by length, the w
    # with right descents in {n} filtered from the enumerated strata, each
    # named by a strict partition inside rho_m with |lam| = l(w) and listed
    # in the order of the partitions; it enumerates no stratum
    calc, grass, named = _walk(family, rank)
    g = calc.group
    m = rank if family == "B" else rank - 1
    assert len(g._levels) == 1
    for k, want in enumerate(_grassmannian_rows(calc)):
        got = grass.classes(g, k)
        assert len(got) == len(want) and set(got) == set(want), k
        lams = [grass.partition[w.id] for w in got]
        assert lams == sorted(lams), k
        for w in got:
            lam = grass.partition[w.id]
            assert w.length == k == sum(lam)
            assert all(a > b for a, b in zip(lam, lam[1:])) and lam[:1] <= (m,)
    assert len(named) == len(grass.partition) == 2 ** m


@pytest.mark.parametrize("family,rank", [("B", 7), ("B", 8), ("D", 7), ("D", 8)])
def test_the_partition_walk_gives_every_class(family, rank):
    # 2^n classes for B_n and 2^(n-1) for D_n, distinct elements with
    # distinct partitions, walked without enumerating a stratum
    calc, grass, named = _walk(family, rank)
    m = rank if family == "B" else rank - 1
    assert len(named) == len(set(named.values())) == 2 ** m
    assert all(w.length == sum(lam) for lam, w in named.items())
    assert len(calc.group._levels) == 1


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6), ("B", 7),
    ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8),
])
def test_the_pieri_rule_matches_the_products(family, rank):
    # tau_k * tau_lam by the Pieri rule against the Leibniz product of the two
    # classes in A(G/B), for every special tau_k and every strict lam inside
    # rho_m with |lam| + k <= |rho_m|; each strip lists its rows in order
    calc, grass, named = _walk(family, rank)
    m = rank if family == "B" else rank - 1
    dim = m * (m + 1) // 2
    checked = 0
    for lam, w in named.items():
        top = min(m, dim - sum(lam))
        for k in range(1, top + 1):
            strip = grass._strip(calc, w, k)
            assert list(strip) == sorted(strip), (k, lam)
            rows = grass.classes(calc.group, sum(lam) + k)
            got = {rows[r]: c for r, c in strip.items()}
            assert got == calc.structure_constants(named[(k,)], w).coeffs, (k, lam)
            checked += 1
    assert checked == sum(min(m, dim - sum(lam)) for lam in named)


@pytest.mark.parametrize("family,rank", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6), ("B", 7), ("B", 8), ("B", 10),
    ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8), ("D", 10),
])
def test_the_pieri_powers_match_the_products(family, rank):
    # every power that the checks of either form reach, tau_k^e by the Pieri
    # chain of ChowComputation.power, against the Leibniz power of Z_w in
    # A(G/B)
    _, calc, runs = chowring._chow_setup(family, rank, None, None)
    checked = 0
    for pres, comp, limit in runs:
        for gen in pres.generators:
            w = calc.group.element_from_word(gen.schubert_word)
            z = power = calc.indicator(w)
            assert comp.power(w, 1) == z
            for e in range(2, gen.power + 1):
                if e * gen.codim > limit:
                    break
                power = calc.mul_expansions(power, z)
                assert comp.power(w, e) == power, (comp.variant, gen.symbol, e)
                checked += 1
    assert checked


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["323", "1"])
def test_a_bd_power_of_a_class_other_than_a_special_one_raises(name, variant):
    # on B3, Z_323 is tau_(2,1), a class of A(G/P) but not a special one, and
    # Z_1 lies outside A(G/P): Z^1 is the class itself, and each higher power
    # is a fault, not a Pieri product
    calc = SchubertCalc(cartan_type("B", 3))
    comp = ChowComputation(calc, variant)
    w = calc.group.element_from_word(tuple(map(int, name)))
    assert comp.power(w, 1) == calc.indicator(w)
    for e in (2, 3):
        with pytest.raises(AssertionError, match=rf"^Z_{name} is not a special class of A\(G/P\)$"):
            comp.power(w, e)


def test_low_codimensions_of_d12_intern_few_elements():
    # the columns intern no element outside W^P but the support of the
    # identity's raise: 10,177 elements when each mu was raised through A(G/B)
    calculus_for.cache_clear()
    chow_to_json("D", 12, "simply_connected", max_codim=3)
    assert len(calculus_for(cartan_type("D", 12)).group._by_id) < 2000
    calculus_for.cache_clear()


@pytest.mark.parametrize("family,rank", [("B", 7), ("D", 7)])
def test_the_bd_strata_compute_no_lex_min_word(family, rank, monkeypatch):
    # a B/D row is named by its strict partition alone, so the strata of both
    # forms up to the default limit ask no element for its lex-min word
    _, _, runs = chowring._chow_setup(family, rank, None, None)
    calc = SchubertCalc(cartan_type(family, rank))
    calls = [0]
    lexmin = weylgroup._LexMin.__call__

    def counted(self, perm):
        calls[0] += 1
        return lexmin(self, perm)

    monkeypatch.setattr(weylgroup._LexMin, "__call__", counted)
    for _, shared, limit in runs:
        chow_groups(calc, shared.variant, limit)
    assert calls == [0]


def _chow_answers(family, rank, order):
    """Per group form: the invariant factors of every stratum up to the
    default limit, the order of each generator class and the answers to the
    power checks, with the strata first built in order(limit) on a fresh
    engine that both forms share."""
    _, _, runs = chowring._chow_setup(family, rank, None, None)
    calc = SchubertCalc(cartan_type(family, rank))
    g, out = calc.group, []
    for pres, shared, limit in runs:
        comp = ChowComputation(calc, shared.variant)
        for k in order(shared.variant, limit):
            comp.stratum(k)
        factors = [comp.stratum(k).invariant_factors for k in range(limit + 1)]
        checks = []
        for gen in pres.generators:
            z = calc.indicator(g.element_from_word(gen.schubert_word))
            checks.append(comp.class_order(z))
            power = z
            for e in range(2, gen.power + 1):
                if e * gen.codim > limit:
                    break
                power = calc.mul_expansions(power, z)
                checks.append((comp.is_zero_class(power), comp.class_order(power)))
        out.append((shared.variant, factors, checks))
    return out


def _json_runs_in_either_order(family, rank, variant):
    """A max_codim=3 run and a default run of chow_to_json on one engine,
    in either order, each against a fresh engine's."""
    def run(max_codim, fresh):
        if fresh:
            calculus_for.cache_clear()
        return chow_to_json(family, rank, variant, max_codim=max_codim)

    want = {max_codim: run(max_codim, True) for max_codim in (3, None)}
    for order in ((3, None), (None, 3)):
        calculus_for.cache_clear()
        calc = calculus_for(cartan_type(family, rank))
        assert run(order[0], False) == want[order[0]], order
        assert run(order[1], False) == want[order[1]], order
        assert calculus_for(cartan_type(family, rank)) is calc
    calculus_for.cache_clear()


REQUEST_ORDER_CASES = [("B", 4, None), ("D", 5, None)] + [
    (family, 8, variant) for family in ("B", "D") for variant in VARIANTS
]


@pytest.mark.parametrize(
    "family,rank,variant",
    REQUEST_ORDER_CASES,
    ids=["-".join(map(str, filter(None, case))) for case in REQUEST_ORDER_CASES],
)
def test_strata_do_not_depend_on_the_request_order(family, rank, variant):
    # a stratum is built from its engine alone, and the Pieri tables that
    # the engine keeps are whole once built: on B4 and D5, both forms, the
    # strata asked for in any order, after a higher one too; on B8 and D8,
    # one form per case, a max_codim=3 run of chow_to_json, which builds the
    # tables of codim 3 and below and of the generator strata its order
    # checks read, and a default run on the same engine, in either order
    if variant:
        _json_runs_in_either_order(family, rank, variant)
        return
    want = _chow_answers(family, rank, lambda variant, limit: range(limit + 1))

    def shuffled(seed):
        def order(variant, limit):
            ks = list(range(limit + 1))
            random.Random(seed).shuffle(ks)
            return ks
        return order

    orders = [
        lambda variant, limit: range(limit, -1, -1),
        shuffled(1),
        shuffled(2),
        lambda variant, limit: [6, 3] if variant == "special_orthogonal" else [],
    ]
    for order in orders:
        assert _chow_answers(family, rank, order) == want


def _warmed(ct):
    """A fresh engine whose covers were cached before enumeration: by a
    product, and then on every element, by a depth-first sweep of the covers
    from the identity."""
    calc = SchubertCalc(ct)
    g, n = calc.group, calc.rank
    gens = sum((calc.indicator(g.simple_reflection(i)) for i in range(2, n + 1)),
               calc.indicator(g.simple_reflection(1)))
    calc.pow_expansion(gens, 4)
    seen, todo = {g.identity}, [g.identity]
    while todo:
        for v, _ in g.covers(todo.pop()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    assert len(seen) == calc.weyl_order
    assert len(g._levels) == 1  # no stratum was enumerated
    return calc


def _lattice(d, variant):
    """The degree-2 lattice of the group form: every weight for Spin, G2 and
    F4, only the span of the t-classes (F4's t among them) for SO."""
    if variant == "simply_connected":
        return [tuple(int(i == j) for i in range(d.rank)) for j in range(d.rank)]
    return list(d.t_vectors) + ([d.extra_t] if d.extra_t is not None else [])


@pytest.mark.parametrize("family,rank,variant", [
    ("G2", None, "simply_connected"),
    ("G2", None, "special_orthogonal"),
    ("F4", None, "simply_connected"),
    ("F4", None, "special_orthogonal"),
    ("B", 3, "simply_connected"),
    ("B", 3, "special_orthogonal"),
    ("D", 4, "simply_connected"),
    ("D", 4, "special_orthogonal"),
])
def test_stratum_columns_are_chevalley_weights(family, rank, variant):
    # column (lam, w) of the codim-k stratum is lam * Z_w by the Chevalley
    # rule, keyed by the row of v in the stratum, on a cold engine and on one
    # whose covers were cached by products before their strata were enumerated
    ct = cartan_type(family, rank)
    for calc in (SchubertCalc(ct), _warmed(ct)):
        g = calc.group
        basis = _lattice(calc.datum, variant)
        for k in range(1, g.longest_length + 1):
            classes, columns = _stratum_columns(calc, variant, k)
            lower = g.elements_of_length(k - 1)
            assert classes == g.elements_of_length(k)
            assert len(columns) == len(basis) * len(lower)
            for j, lam in enumerate(basis):
                for i, w in enumerate(lower):
                    want = calc.chevalley_weight(lam, calc.indicator(w))
                    got = columns[j * len(lower) + i]
                    assert got == {classes.index(v): c for v, c in want.coeffs.items()}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("family,rank,top", [("G2", None, None), ("B", 3, None), ("F4", None, 4)])
def test_stratum_columns_are_divided_difference_products(family, rank, top, variant):
    # a reference that reads no cover: column (lam, y) is the Schubert
    # expansion, by divided differences, of the linear form of lam times the
    # Giambelli polynomial of y; every stratum of G2 and B3, F4 up to codim 4
    calc = SchubertCalc(cartan_type(family, rank))
    g = calc.group
    basis = _lattice(calc.datum, variant)
    for k in range(1, (top or g.longest_length) + 1):
        classes, columns = _stratum_columns(calc, variant, k)
        lower = g.elements_of_length(k - 1)
        assert classes == g.elements_of_length(k)
        assert len(columns) == len(basis) * len(lower)
        for j, lam in enumerate(basis):
            form = Polynomial.linear_form(lam)
            for i, y in enumerate(lower):
                want = calc.schubert_expand(form * calc.giambelli_poly(y))
                got = columns[j * len(lower) + i]
                assert got == {classes.index(v): c for v, c in want.coeffs.items()}, (k, j, y)


class TestChowGroups:
    def test_f4_strata(self, calc_f4):
        got = chow_groups(calc_f4, "simply_connected", 24)
        assert got.strata == ((0, (0,)), (3, (2,)), (4, (3,)), (8, (3,)))

    def test_g2_strata(self, calc_g2):
        got = chow_groups(calc_g2, "simply_connected", 6)
        assert got.strata == ((0, (0,)), (3, (2,)))

    def test_spin7_strata_match_oracle(self, calc_b3):
        got = chow_groups(calc_b3, "simply_connected", 9)
        pres = chow_presentation(cartan_type("B", 3), "simply_connected")
        assert got == presentation_strata(pres, 9)
        assert got.factors(3) == (2,)

    def test_so7_strata_match_oracle(self, calc_b3):
        got = chow_groups(calc_b3, "special_orthogonal", 9)
        pres = chow_presentation(cartan_type("B", 3), "special_orthogonal")
        assert got == presentation_strata(pres, 9)
        assert got.factors(3) == (2, 2)

    def test_spin5_is_trivial(self, calc_b2):
        got = chow_groups(calc_b2, "simply_connected", 4)
        assert got.strata == ((0, (0,)),)

    def test_so9_strata(self, calc_b4):
        got = chow_groups(calc_b4, "special_orthogonal", 4)
        assert str(got) == "0: Z; 1: Z/2; 2: Z/2; 3: Z/2 + Z/2; 4: Z/2 + Z/2"

    @pytest.mark.parametrize("max_codim", [0, -3, 7])
    def test_max_codim_out_of_range(self, calc_g2, max_codim):
        message = f"max_codim {max_codim} is outside 1..6"
        with pytest.raises(OutOfRangeError, match=message):
            chow_groups(calc_g2, "simply_connected", max_codim)


class TestPresentations:
    def test_so7(self):
        pres = chow_presentation(cartan_type("B", 3), "special_orthogonal")
        data = {(g.symbol, g.torsion, g.power) for g in pres.generators}
        assert data == {("X1", 2, 4), ("X3", 2, 2)}

    def test_so_spin_differ_by_x1(self):
        for family, rank in (("B", 3), ("B", 4), ("B", 5), ("D", 4), ("D", 5)):
            so = chow_presentation(cartan_type(family, rank), "special_orthogonal")
            spin = chow_presentation(cartan_type(family, rank), "simply_connected")
            assert [g for g in so.generators if g.codim > 1] == list(spin.generators)
            assert any(g.codim == 1 for g in so.generators)
            assert all(g.codim > 1 for g in spin.generators)

    def test_exponents_b5_so11(self):
        pres = chow_presentation(cartan_type("B", 5), "special_orthogonal")
        data = {(g.symbol, g.power) for g in pres.generators}
        assert data == {("X1", 8), ("X3", 2), ("X5", 2)}

    def test_exponents_d5_so10(self):
        pres = chow_presentation(cartan_type("D", 5), "special_orthogonal")
        data = {(g.symbol, g.power) for g in pres.generators}
        assert data == {("X1", 8), ("X3", 2)}

    def test_f4_g2(self):
        f4 = chow_presentation(cartan_type("F4"), "simply_connected")
        assert str(f4) == "A(F4) = Z[X3, X4]/(2X3, X3^2, 3X4, X4^3)"
        g2 = chow_presentation(cartan_type("G2"), "simply_connected")
        assert [(g.torsion, g.power) for g in g2.generators] == [(2, 2)]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("family,rank", [("B", 10), ("B", 30), ("D", 12)])
    def test_json_words_read_back(self, family, rank, variant):
        """Above rank 9 the JSON words are comma-separated, as the check names
        print them, so ``--word`` reads each one back."""
        calc = calculus_for(cartan_type(family, rank))
        pres = chow_presentation(calc.cartan_type, variant)
        rows = pres.to_json_dict()["generators"]
        assert len(rows) == len(pres.generators)
        for gen, row in zip(pres.generators, rows):
            w = calc.group.element_from_word(gen.schubert_word)
            assert row["schubert_word"] == w.word_str()
            assert cli._parse_word(calc, row["schubert_word"]) is w
        if rank >= 10:
            assert "," in rows[-1]["schubert_word"]


class TestMonomialOracle:
    def test_f4(self):
        pres = chow_presentation(cartan_type("F4"), "simply_connected")
        got = presentation_strata(pres, 24)
        assert got.strata == ((0, (0,)), (3, (2,)), (4, (3,)), (8, (3,)))

    def test_so7_by_hand(self):
        # Z[X1,X3]/(2X1,2X3,X1^4,X3^2): monomials X1^a X3^b, a<4, b<2
        pres = chow_presentation(cartan_type("B", 3), "special_orthogonal")
        got = presentation_strata(pres, 9)
        assert got.strata == (
            (0, (0,)),
            (1, (2,)),
            (2, (2,)),
            (3, (2, 2)),
            (4, (2,)),
            (5, (2,)),
            (6, (2,)),
        )


class TestVerifyChow:
    @pytest.mark.parametrize(
        "family,rank", [("G2", None), ("B", 2), ("B", 3), ("D", 4)]
    )
    def test_all_pass(self, family, rank):
        rep = verify_chow(family, rank)
        assert rep.all_passed, [
            (c.name, c.expected, c.got) for c in rep.failures()
        ]

    def test_f4_multiplicative(self):
        rep = verify_chow("F4")
        assert rep.all_passed, [c.name for c in rep.failures()]
        names = {c.name for c in rep.checks}
        assert "F4: X4^2 != 0" in names
        assert "F4: X4^3 = 0" in names

    @pytest.mark.parametrize("max_codim", [0, -1, 7])
    def test_max_codim_out_of_range(self, max_codim):
        with pytest.raises(OutOfRangeError):
            verify_chow("G2", max_codim=max_codim)
        with pytest.raises(OutOfRangeError):
            chow_to_json("G2", None, "simply_connected", max_codim)

    def test_json_payload_builds_the_groups_once(self, monkeypatch):
        # each stratum is built once: the payload reads the strata before
        # the checks, and the strata check and every later one read the
        # strata kept; B3's SO limit is 9
        built = []
        real = chowring._Grassmannian.stratum_columns

        def counting(grass, calc, variant, k):
            built.append(k)
            return real(grass, calc, variant, k)

        monkeypatch.setattr(chowring._Grassmannian, "stratum_columns", counting)
        payload = chow_to_json("B", 3, "special_orthogonal")
        assert built == list(range(1, 10))
        assert [s["codim"] for s in payload["strata"]] == list(range(7))
        assert all(c["pass"] for c in payload["checks"])

    @pytest.mark.parametrize("family,rank,variant,target", [
        ("G2", None, "simply_connected", "_stratum_columns"),
        ("B", 3, "special_orthogonal", "_Grassmannian.stratum_columns"),
    ])
    def test_json_payload_raises_before_any_check(self, monkeypatch, family, rank, variant, target):
        # a stratum that raises stops the payload where its strata are read,
        # once, before any check is computed
        names = []
        real = VerificationReport.check

        def recording(report, name, compute):
            names.append(name)
            return real(report, name, compute)

        def boom(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(VerificationReport, "check", recording)
        monkeypatch.setattr(f"flagcalc.chowring.{target}", boom)
        with pytest.raises(RuntimeError, match="^injected$"):
            chow_to_json(family, rank, variant)
        assert names == []

    @pytest.mark.parametrize("family,rank,target", [
        ("G2", None, "SchubertCalc.mul_expansions"),
        ("G2", None, "ChowComputation.groups"),
        ("G2", None, "_stratum_factors"),
        ("F4", None, "SchubertCalc.mul_expansions"),
        ("B", 3, "_Grassmannian.times"),
        ("B", 3, "ChowComputation.groups"),
        ("B", 3, "_stratum_factors"),
    ])
    def test_fault_keeps_every_check(self, monkeypatch, target, family, rank):
        # the power checks take Leibniz products on G2 and F4, and the Pieri
        # rule on B/D
        passing = verify_chow(family, rank)
        assert passing.all_passed

        def boom(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(f"flagcalc.chowring.{target}", boom)
        rep = verify_chow(family, rank)
        assert [c.name for c in rep.checks] == [c.name for c in passing.checks]
        if family == "G2":
            assert len(rep.checks) == 4
        failed = rep.failures()
        assert failed
        for c in failed:
            assert (c.expected, c.got) == ("no error", "RuntimeError: injected")

    def test_generator_powers_are_chained(self, monkeypatch):
        # on F4, X^e is X^(e-1) * X by Leibniz products: one product per power
        # check, none computed anew
        calls = []
        real = SchubertCalc.mul_expansions

        def counting(calc, a, b):
            calls.append((a.codim, b.codim))
            return real(calc, a, b)

        monkeypatch.setattr(SchubertCalc, "mul_expansions", counting)
        rep = verify_chow("F4")
        assert rep.all_passed
        powers = [c.name for c in rep.checks if "^" in c.name]
        assert len(calls) == len(powers) == 3
        # X3^2, X4^2 and X4^3 (X3 of codim 3, X4 of 4)
        assert calls == [(3, 3), (4, 4), (8, 4)]

    def test_bd_generator_powers_are_pieri_chained(self, monkeypatch):
        # on B3, X^e is X^(e-1) * tau_k by the Pieri rule: one product per
        # power check, none computed anew, and no Leibniz product
        calls = []
        real = chowring._Grassmannian.times

        def counting(grass, calc, x, z):
            calls.append((x.codim, z.codim))
            return real(grass, calc, x, z)

        monkeypatch.setattr(chowring._Grassmannian, "times", counting)
        monkeypatch.setattr(SchubertCalc, "mul_expansions", None)
        rep = verify_chow("B", 3)
        assert rep.all_passed
        powers = [c.name for c in rep.checks if "^" in c.name]
        assert len(calls) == len(powers) == 5
        # Spin(7): X3^2; SO(7): X1^2, X1^3, X1^4 and X3^2 (X1 of codim 1, X3 of 3)
        assert calls == [(3, 3), (1, 1), (2, 1), (3, 1), (3, 3)]

    def _squares_raise(self, family, rank):
        failed = verify_chow(family, rank).failures()
        for c in failed:
            assert (c.expected, c.got) == ("no error", "RuntimeError: injected square")
        return [c.name for c in failed]

    def test_a_power_fails_with_the_error_of_its_lower_power(self, monkeypatch):
        # squares raise: every power check fails under its own name with that
        # error, X4^3 because X4^2 raised, and nothing else fails
        real = SchubertCalc.mul_expansions

        def squares_raise(calc, a, b):
            if a is b:
                raise RuntimeError("injected square")
            return real(calc, a, b)

        monkeypatch.setattr(SchubertCalc, "mul_expansions", squares_raise)
        assert self._squares_raise("F4", None) == [
            "F4: X3^2 = 0",
            "F4: X4^2 != 0",
            "F4: X4^3 = 0",
        ]

    def test_a_bd_power_fails_with_the_error_of_its_lower_power(self, monkeypatch):
        # the Pieri product that squares tau_k raises: every power check fails
        # under its own name with that error, X1^3 and X1^4 because X1^2
        # raised, and nothing else fails
        real = chowring._Grassmannian.times

        def squares_raise(grass, calc, x, z):
            if x is z:
                raise RuntimeError("injected square")
            return real(grass, calc, x, z)

        monkeypatch.setattr(chowring._Grassmannian, "times", squares_raise)
        assert self._squares_raise("B", 3) == [
            "Spin(7): X3^2 = 0",
            "SO(7): X1^2 != 0",
            "SO(7): X1^3 != 0",
            "SO(7): X1^4 = 0",
            "SO(7): X3^2 = 0",
        ]

    def test_json_payload_raises_when_the_strata_fail(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(ChowComputation, "groups", boom)
        with pytest.raises(RuntimeError, match="injected"):
            chow_to_json("G2", None, "simply_connected")

    def test_json_payload(self):
        payload = chow_to_json("G2", None, "simply_connected")
        assert payload["type"] == "G2"
        assert payload["strata"][0] == {"codim": 0, "factors": [0]}
        assert {s["codim"]: s["factors"] for s in payload["strata"]}[3] == [2]
        assert all(c["pass"] for c in payload["checks"])


class TestMultiplicativeConsistency:
    def test_adding_ideal_column_does_not_change_product_class(self, calc_g2):
        # reduce-then-multiply agrees with multiply-then-reduce
        comp = ChowComputation(calc_g2, "simply_connected")
        g = calc_g2.group
        x3 = calc_g2.indicator(word(calc_g2, "121"))
        # an ideal element of codim 3: omega_1 * Z_{12}
        ideal = calc_g2.chevalley_weight((1, 0), calc_g2.indicator(word(calc_g2, "12")))
        shifted = x3 + ideal
        prod_a = calc_g2.mul_expansions(x3, x3)
        prod_b = calc_g2.mul_expansions(shifted, x3)
        assert comp.classify(prod_a) == comp.classify(prod_b)
