"""Chow rings of the complex algebraic groups behind the supported flag
manifolds, computed as quotients by the degree-2-generated ideal.

The ideal is generated in degree 2, so its codimension-k piece is spanned by
the products lambda * Z_w over a basis of the degree-2 lattice and the basis
classes of length k-1.  Each stratum of the quotient is the cokernel of an
integer matrix, brought to Smith normal form; all arithmetic stays in exact
arbitrary-precision integers.

Group forms: ``simply_connected`` takes the full weight lattice in degree 2
(Spin, G2, F4); ``special_orthogonal`` the sublattice spanned by the
t-classes, which produces the extra order-2 generator in codimension 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import OutOfRangeError
from .presentations import VerificationReport, gamma_word
from .rootdata import CartanType, cartan_type, elem_sym_t
from .schubert import SchubertCalc, SchubertExpansion, calculus_for

VARIANTS = ("simply_connected", "special_orthogonal")


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------


@dataclass
class IntegerMatrix:
    rows: int
    cols: int
    entries: list  # list of row lists, arbitrary-precision ints

    def __post_init__(self):
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise ValueError("inconsistent matrix dimensions")

    def copy_entries(self) -> list:
        return [row[:] for row in self.entries]


def _identity_list(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _RowOps:
    """Record of elementary row operations, replayable on any vector."""

    __slots__ = ("ops",)

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
            ri, rj = A[i], A[j]
            A[i] = [x + q * y for x, y in zip(ri, rj)]
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


def _snf_inplace(A: list, rowops: _RowOps, colops: _RowOps | None = None) -> list:
    """Reduce A to Smith normal form in place; returns the full diagonal.

    Pivots are chosen with minimal absolute value to control entry growth.
    Column operations are recorded only when a tracker is supplied (they do
    not affect cokernel coordinates).
    """
    m = len(A)
    n = len(A[0]) if m else 0

    def col_swap(c1, c2):
        if c1 != c2:
            for row in A:
                row[c1], row[c2] = row[c2], row[c1]
            if colops is not None:
                colops.ops.append(("swap", c1, c2, 0))

    def col_addmul(c1, c2, q):
        # col_c1 += q * col_c2
        if q:
            for row in A:
                row[c1] += q * row[c2]
            if colops is not None:
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


def smith_normal_form(M: IntegerMatrix) -> SmithResult:
    """Smith normal form with unimodular transforms, U*M*V = D."""
    A = M.copy_entries()
    rowops = _RowOps()
    colops = _RowOps()
    diag = _snf_inplace(A, rowops, colops)
    # U e_k, over the standard basis, assembles the row-op product.
    U = [[0] * M.rows for _ in range(M.rows)]
    for k in range(M.rows):
        col = [1 if r == k else 0 for r in range(M.rows)]
        res = rowops.apply(col)
        for r in range(M.rows):
            U[r][k] = res[r]
    # Column ops are right multiplications; replay them on V.
    V = _identity_list(M.cols)
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


# ---------------------------------------------------------------------------
# Cokernel of a stratum matrix
# ---------------------------------------------------------------------------


class CokernelStratum:
    """Cokernel of one ideal stratum, with a class map for reductions.

    The columns are very sparse with many unit entries, so unit pivots are
    eliminated first on a sparse structure; the small residual matrix then
    goes through the dense Smith reduction.  Only row operations are recorded;
    column operations never change cokernel coordinates.
    """

    def __init__(self, rows: int, columns: list):
        self.rows = rows
        self._rowops = _RowOps()

        cols = []
        for col in columns:
            d = {r: v for r, v in col.items() if v}
            if d:
                cols.append(d)
        col_of_row: dict = {r: set() for r in range(rows)}
        for ci, d in enumerate(cols):
            for r in d:
                col_of_row[r].add(ci)
        alive = set(range(len(cols)))
        active_rows = set(range(rows))
        unit_factors = 0

        while True:
            found = None
            for ci in alive:
                for r, v in cols[ci].items():
                    if v in (1, -1):
                        found = (ci, r, v)
                        break
                if found:
                    break
            if not found:
                break
            ci, r, v = found
            pivot_col = cols[ci]
            for r2 in [x for x in pivot_col if x != r]:
                q = -pivot_col[r2] * v
                self._rowops.ops.append(("add", r2, r, q))
                for cj in list(col_of_row[r]):
                    if cj not in alive:
                        continue
                    d = cols[cj]
                    val = d.get(r)
                    if not val:
                        continue
                    nv = d.get(r2, 0) + q * val
                    if nv:
                        d[r2] = nv
                        col_of_row[r2].add(cj)
                    elif r2 in d:
                        del d[r2]
                        col_of_row[r2].discard(cj)
            # pivot column now holds a single +-1 at row r; clearing row r from
            # the other columns is a column operation, so just drop the entries.
            for cj in list(col_of_row[r]):
                if cj != ci and cj in alive:
                    d = cols[cj]
                    if r in d:
                        del d[r]
                        if not d:
                            alive.discard(cj)
            alive.discard(ci)
            active_rows.discard(r)
            del col_of_row[r]
            unit_factors += 1

        residual_rows = sorted(active_rows)
        sub_cols = [cols[ci] for ci in alive if cols[ci]]
        if residual_rows and sub_cols:
            index = {r: k for k, r in enumerate(residual_rows)}
            dense = [[0] * len(sub_cols) for _ in residual_rows]
            for j, d in enumerate(sub_cols):
                for r, v in d.items():
                    dense[index[r]][j] = v
            local_ops = _RowOps()
            diag = _snf_inplace(dense, local_ops)
            # Translate the dense-phase ops to original row labels; swaps are
            # absorbed into the evolving position->label permutation.
            for kind, i, j, q in local_ops.ops:
                if kind == "swap":
                    residual_rows[i], residual_rows[j] = (
                        residual_rows[j],
                        residual_rows[i],
                    )
                elif kind == "neg":
                    self._rowops.ops.append(("neg", residual_rows[i], 0, 0))
                else:
                    self._rowops.ops.append(
                        ("add", residual_rows[i], residual_rows[j], q)
                    )
            self._pivots = [
                (residual_rows[k], diag[k]) for k in range(len(diag)) if diag[k]
            ]
            pivot_rows = {r for r, _ in self._pivots}
            self._free_rows = [r for r in residual_rows if r not in pivot_rows]
        else:
            self._pivots = []
            self._free_rows = residual_rows

        self.invariant_factors = [1] * unit_factors + sorted(
            d for _, d in self._pivots
        )
        self.torsion = sorted(d for d in self.invariant_factors if d > 1)
        self.free_rank = len(self._free_rows)

    def classify(self, vec) -> tuple:
        """Class of an integer vector in the cokernel.

        Returns (torsion residues, free coordinates); the zero class has all
        zeros in both parts.
        """
        v = self._rowops.apply(list(vec))
        torsion = tuple(v[r] % d for r, d in self._pivots if d > 1)
        free = tuple(v[r] for r in self._free_rows)
        return torsion, free

    def class_order(self, vec) -> int:
        """Additive order of the class of vec; 0 means infinite order."""
        torsion, free = self.classify(vec)
        if any(free):
            return 0
        order = 1
        dlist = [d for _, d in self._pivots if d > 1]
        for d, res in zip(dlist, torsion):
            if res:
                k = d // gcd(d, res)
                order = order * k // gcd(order, k)
        return order

    def is_zero_class(self, vec) -> bool:
        torsion, free = self.classify(vec)
        return not any(torsion) and not any(free)


# ---------------------------------------------------------------------------
# Ideal strata and Chow groups
# ---------------------------------------------------------------------------


def _stratum_columns(calc: SchubertCalc, variant: str, k: int):
    """Sparse columns (dicts row -> entry) of the codim-k ideal stratum.

    Column (lam, w) holds the Chevalley rule lam * Z_w = sum (beta^vee | lam)
    Z_{w s_beta} over the covers of w, in positive-root order.
    """
    group = calc.group
    basis = group.sorted_stratum(k)
    index = {w: i for i, w in enumerate(basis)}
    lower = group.sorted_stratum(k - 1)
    columns = []
    for lam in calc.datum.degree2_lattice_basis(variant):
        pairing = calc.root_pairings(lam)
        for w in lower:
            columns.append(
                {index[v]: pairing[b] for v, b in group.covers(w) if pairing[b]}
            )
    return len(basis), columns, basis


def degree2_ideal_stratum(calc: SchubertCalc, variant: str, k: int) -> IntegerMatrix:
    """Matrix of the codim-k piece of the degree-2-generated ideal."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 1 <= k <= calc.group.longest_length:
        raise OutOfRangeError(f"codimension {k} out of range")
    rows, columns, _ = _stratum_columns(calc, variant, k)
    dense = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for r, v in col.items():
            dense[r][j] = v
    return IntegerMatrix(rows, len(columns), dense)


class ChowComputation:
    """Per-(type, variant) cache of stratum cokernels and class reductions."""

    def __init__(self, calc: SchubertCalc, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.calc = calc
        self.variant = variant
        self._strata: dict = {}

    def stratum(self, k: int) -> tuple:
        """(CokernelStratum, ordered Schubert basis) for codimension k."""
        got = self._strata.get(k)
        if got is None:
            rows, columns, basis = _stratum_columns(self.calc, self.variant, k)
            got = (CokernelStratum(rows, columns), basis)
            self._strata[k] = got
        return got

    def vector_of(self, x: SchubertExpansion) -> list:
        _, basis = self.stratum(x.codim)
        index = {w: i for i, w in enumerate(basis)}
        vec = [0] * len(basis)
        for w, c in x.coeffs.items():
            vec[index[w]] = c
        return vec

    def classify(self, x: SchubertExpansion) -> tuple:
        coker, _ = self.stratum(x.codim)
        return coker.classify(self.vector_of(x))

    def class_order(self, x: SchubertExpansion) -> int:
        coker, _ = self.stratum(x.codim)
        return coker.class_order(self.vector_of(x))

    def is_zero_class(self, x: SchubertExpansion) -> bool:
        coker, _ = self.stratum(x.codim)
        return coker.is_zero_class(self.vector_of(x))


@dataclass(frozen=True)
class GradedAbelianGroup:
    """Invariant factors per codimension; 0 denotes a free summand."""

    strata: tuple  # pairs (codim, tuple of factors), trivial codims omitted

    def factors(self, k: int) -> tuple:
        for codim, fs in self.strata:
            if codim == k:
                return fs
        return ()

    def to_json_list(self) -> list:
        return [{"codim": k, "factors": list(fs)} for k, fs in self.strata]

    def __str__(self):
        def fmt(fs):
            return " + ".join("Z" if f == 0 else f"Z/{f}" for f in fs)

        return "; ".join(f"{k}: {fmt(fs)}" for k, fs in self.strata) or "trivial"


def chow_groups(
    calc: SchubertCalc,
    variant: str,
    max_codim: int,
    comp: ChowComputation | None = None,
) -> GradedAbelianGroup:
    """Additive structure of the quotient ring up to codimension max_codim."""
    if max_codim > calc.group.longest_length:
        raise OutOfRangeError("max_codim exceeds the number of positive roots")
    comp = comp or ChowComputation(calc, variant)
    strata = [(0, (0,))]
    for k in range(1, max_codim + 1):
        coker, _ = comp.stratum(k)
        # torsion factors first, then zeros for free summands (chain order)
        fs = tuple(coker.torsion + [0] * coker.free_rank)
        if fs:
            strata.append((k, fs))
    return GradedAbelianGroup(tuple(strata))


# ---------------------------------------------------------------------------
# Closed-form presentations and the monomial oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChowGenerator:
    symbol: str
    codim: int
    torsion: int
    power: int  # smallest power that vanishes
    schubert_word: tuple


@dataclass(frozen=True)
class ChowPresentation:
    group_name: str
    generators: tuple

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_name,
            "generators": [
                {
                    "symbol": g.symbol,
                    "codim": g.codim,
                    "torsion": g.torsion,
                    "power": g.power,
                    "schubert_word": "".join(str(i) for i in g.schubert_word),
                }
                for g in self.generators
            ],
        }

    def __str__(self):
        if not self.generators:
            return f"A({self.group_name}) = Z"
        gens = ", ".join(g.symbol for g in self.generators)
        rels = ", ".join(
            f"{g.torsion}{g.symbol}, {g.symbol}^{g.power}" for g in self.generators
        )
        return f"A({self.group_name}) = Z[{gens}]/({rels})"


def _log2_floor_ratio(num: int, den: int) -> int:
    # floor(log2(num/den)) for num >= den >= 1
    return (num // den).bit_length() - 1


def chow_presentation(ct: CartanType, variant: str) -> ChowPresentation:
    """The closed-form presentation of A(G) for the given group form."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = ct.rank
    if ct.family == "G2":
        return ChowPresentation("G2", (ChowGenerator("X3", 3, 2, 2, (1, 2, 1)),))
    if ct.family == "F4":
        return ChowPresentation(
            "F4",
            (
                ChowGenerator("X3", 3, 2, 2, (1, 2, 3)),
                ChowGenerator("X4", 4, 3, 3, (1, 2, 3, 4)),
            ),
        )
    if ct.family == "B":
        m = 2 * n + 1
        top = 2 * ((n + 1) // 2) - 1
        neff = n
    else:
        m = 2 * n
        top = 2 * (n // 2) - 1
        neff = n - 1
    gens = []
    for i in range(1, top + 1, 2):
        if variant == "simply_connected" and i == 1:
            continue
        p = 2 ** (_log2_floor_ratio(neff, i) + 1)
        gens.append(ChowGenerator(f"X{i}", i, 2, p, gamma_word(ct, i)))
    prefix = "Spin" if variant == "simply_connected" else "SO"
    return ChowPresentation(f"{prefix}({m})", tuple(gens))


def presentation_strata(pres: ChowPresentation, max_codim: int) -> GradedAbelianGroup:
    """Additive strata of the presented ring, by monomial enumeration.

    A monomial in the generators is annihilated by the gcd of the torsion
    coefficients of the generators it contains; gcd 1 kills the monomial.
    """
    counts: dict = {}

    def rec(idx: int, codim: int, tors: int):
        if idx == len(pres.generators):
            if codim and tors > 1:
                counts.setdefault(codim, []).append(tors)
            return
        g = pres.generators[idx]
        for e in range(g.power):
            c = codim + e * g.codim
            if c > max_codim:
                break
            rec(idx + 1, c, tors if e == 0 else gcd(tors, g.torsion))

    rec(0, 0, 0)
    strata = [(0, (0,))]
    for k in sorted(counts):
        strata.append((k, tuple(sorted(counts[k]))))
    return GradedAbelianGroup(tuple(strata))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _default_max_codim(ct: CartanType, pres: ChowPresentation) -> int:
    N = {"B": ct.rank**2, "D": ct.rank * (ct.rank - 1), "G2": 6, "F4": 24}[ct.family]
    if ct.family in ("G2", "F4"):
        return N
    peak = max((g.power * g.codim for g in pres.generators), default=3)
    return min(2 * peak, N)


def _generator_power_class(calc: SchubertCalc, gen: ChowGenerator, e: int):
    """Class of the e-th power of a generator, as a Schubert expansion.

    G2/F4 powers go through the Giambelli representatives of the generator
    classes; in B/D the generator equals gamma_i, whose torsion-free
    representative e_i(t)/2 keeps high ranks tractable.
    """
    ct = calc.cartan_type
    w = calc.group.element_from_word(gen.schubert_word)
    if ct.family in ("G2", "F4"):
        return calc.pow_expansion(calc.indicator(w), e)
    f = elem_sym_t(calc.datum, gen.codim, calc.rank)
    return calc.expand_class_poly(f**e, Fraction(1, 2**e))


def verify_chow(
    family: str,
    rank: int | None = None,
    variant: str | None = None,
    max_codim: int | None = None,
) -> VerificationReport:
    """Compare the computed quotient against the closed-form presentation.

    Runs the additive comparison stratum by stratum against the monomial
    oracle, checks that the stated Schubert classes generate the torsion with
    the right order, and confirms each generator power vanishes exactly at its
    stated exponent and not before.
    """
    ct = cartan_type(family, rank)
    variants = (
        (variant,)
        if variant
        else (VARIANTS if ct.family in ("B", "D") else ("simply_connected",))
    )
    report = VerificationReport(f"{ct.name} Chow ring checks", [])
    calc = calculus_for(ct)
    for var in variants:
        pres = chow_presentation(ct, var)
        limit = max_codim or _default_max_codim(ct, pres)
        _check_variant(report, calc, pres, ChowComputation(calc, var), limit)
    return report


def _check_variant(
    report: VerificationReport,
    calc: SchubertCalc,
    pres: ChowPresentation,
    comp: ChowComputation,
    limit: int,
) -> None:
    """Add the checks of one group form to report, on the strata of comp."""
    label = pres.group_name
    var = comp.variant
    try:
        got = chow_groups(calc, var, limit, comp)
        want = presentation_strata(pres, limit)
        report.add(f"{label}: additive strata (codim <= {limit})", want, got)
    except Exception as exc:
        report.add_exc(f"{label}: additive strata", exc)

    try:
        coker, _ = comp.stratum(1)
        fs = tuple(coker.torsion + [0] * coker.free_rank)
        want1 = tuple(sorted(g.torsion for g in pres.generators if g.codim == 1))
        report.add(f"{label}: codim-1 stratum", want1, fs)
    except Exception as exc:
        report.add_exc(f"{label}: codim-1 stratum", exc)

    for gen in pres.generators:
        try:
            w = calc.group.element_from_word(gen.schubert_word)
            order = comp.class_order(calc.indicator(w))
            report.add(
                f"{label}: order of [Z_{w.word_str()}]", gen.torsion, order
            )
        except Exception as exc:
            report.add_exc(f"{label}: generator {gen.symbol}", exc)

        for e in range(2, gen.power + 1):
            if e * gen.codim > limit:
                break
            try:
                cls = _generator_power_class(calc, gen, e)
                zero = comp.is_zero_class(cls)
                want = "zero" if e >= gen.power else "nonzero"
                report.add(
                    f"{label}: {gen.symbol}^{e} "
                    f"{'=' if e >= gen.power else '!='} 0",
                    want,
                    "zero" if zero else "nonzero",
                )
            except Exception as exc:
                report.add_exc(f"{label}: {gen.symbol}^{e}", exc)


def chow_to_json(
    family: str,
    rank: int | None,
    variant: str,
    max_codim: int | None = None,
) -> dict:
    """JSON payload for the CLI: strata, presentation and check results."""
    ct = cartan_type(family, rank)
    calc = calculus_for(ct)
    pres = chow_presentation(ct, variant)
    limit = max_codim or _default_max_codim(ct, pres)
    comp = ChowComputation(calc, variant)
    groups = chow_groups(calc, variant, limit, comp)
    report = VerificationReport(f"{ct.name} Chow ring checks", [])
    _check_variant(report, calc, pres, comp, limit)
    return {
        "type": ct.name,
        "variant": variant,
        "strata": groups.to_json_list(),
        "presentation": pres.to_json_dict(),
        "checks": report.to_json_dict()["checks"],
    }
