"""Chow rings of the complex algebraic groups behind the supported flag
manifolds, computed as quotients by the degree-2-generated ideal.

The ideal is generated in degree 2, so its codimension-k piece is spanned by
the products lambda * Z_w over a basis of the degree-2 lattice and the basis
classes of length k-1.  Each stratum of the quotient is the cokernel of a
sparse integer matrix built from the flat Bruhat cover tables of the Weyl
group.  A sparse elimination diagonalises it in two phases, unit pivots by
substitution and then the few columns left without a unit; its pivots give
the invariant factors.  All arithmetic stays in exact integers.

Group forms: ``simply_connected`` takes the full weight lattice in degree 2
(Spin, G2, F4); ``special_orthogonal`` the sublattice spanned by the
t-classes, which produces the extra order-2 generator in codimension 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import OutOfRangeError
from .presentations import VerificationReport, gamma_word
from .rootdata import CartanType, cartan_type, elem_sym_t
from .schubert import SchubertCalc, SchubertExpansion, calculus_for

VARIANTS = ("simply_connected", "special_orthogonal")


# ---------------------------------------------------------------------------
# Cokernel of a stratum matrix
# ---------------------------------------------------------------------------


class CokernelStratum:
    """Cokernel of one ideal stratum, with a class map for reductions.

    The columns are dicts row -> entry, read and never changed.  Two phases
    bring the matrix to a diagonal U M V, recording only the row operations,
    as triples (t, s, q) meaning row_t += q * row_s; column operations never
    change cokernel coordinates.

    The unit phase takes the columns shortest first and pivots on a +-1
    entry u of each, at row s.  The row operations row_t += -a_t u row_s
    clear the other entries a_t of the pivot column, and the column
    operations that clear row s elsewhere amount to a substitution: an entry
    b at row s becomes -a_t u b at each row t.  Each column is reduced by the
    substitutions of the rows pivoted before it (most are empty) before its
    pivot is chosen; no row keeps the set of columns it meets.  A column left
    without a unit is set aside and, once every column is read, reduced again;
    equal columns go on once.

    The general phase takes those columns, on the rows without a pivot.  It
    pivots on a +-1 entry, or on an entry of least absolute value.
    Floor-quotient row operations leave remainders in the rest of the pivot
    column, and remainder column operations do the same along the pivot row.
    The pivot retires once its row and column are both clean; otherwise the
    least entry has strictly shrunk and the loop picks again.

    The cokernel is the sum of Z/d over the retired pivots d and one Z per
    row that never held a pivot; one gcd/lcm pass turns the pivots into the
    divisibility chain of invariant factors.  Which rows hold the pivots
    depends on the order of the columns, the invariant factors do not.
    """

    def __init__(self, rows: int, columns: list):
        self.rows = rows
        self._rowops = []
        units, rest = self._unit_phase(columns)
        pivots, free_rows = _eliminate(
            [r for r in range(rows) if r not in units], rest, self._rowops
        )
        self._pivots = [(r, d) for r, d in pivots if d > 1]
        self._free_rows = free_rows
        self.moduli = tuple(d for _, d in self._pivots)
        chain = list(self.moduli)
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                g = gcd(chain[i], chain[j])
                chain[i], chain[j] = g, chain[i] * chain[j] // g
        self.invariant_factors = [1] * (len(units) + len(pivots) - len(chain)) + chain
        self.torsion = [d for d in chain if d > 1]
        self.free_rank = len(self._free_rows)

    def _unit_phase(self, columns) -> tuple:
        """(substitution per unit pivot row, the reduced columns without a unit).

        The substitution of pivot row s maps each row t to its multiplier q;
        its row operations are appended to the record in pivot order.  The
        substitutions are kept closed: they name only rows that hold no
        pivot, so one pass reduces a column.  When row s becomes a pivot, the
        substitutions that name s take in its own.  Among the units of a
        column, the pivot goes to the row that the fewest columns meet, so
        that its substitution reaches few of them.
        """
        rowops = self._rowops
        subs: dict = {}  # pivot row -> {t: q}
        users: dict = {}  # row -> pivot rows whose substitution may name it

        def reduce(col) -> dict:
            d = {}
            for r, v in col.items():
                sub = subs.get(r)
                if sub is None:
                    nv = d.get(r, 0) + v
                    if nv:
                        d[r] = nv
                    elif r in d:
                        del d[r]
                elif sub and v:
                    for t, q in sub.items():
                        nv = d.get(t, 0) + q * v
                        if nv:
                            d[t] = nv
                        else:
                            del d[t]
            return d

        rest = []
        count = None  # row -> number of columns that meet it, once a choice needs it
        for col in sorted(columns, key=len):
            d = reduce(col)
            for s, u in d.items():
                if u == 1 or u == -1:
                    break
            else:
                if d:
                    rest.append(d)
                continue
            if len(d) > 1:
                if count is None:
                    count = Counter(chain.from_iterable(columns))
                s = min((r for r, a in d.items() if a == 1 or a == -1), key=count.__getitem__)
                u = d[s]
            del d[s]
            sub = subs[s] = {t: -a * u for t, a in d.items()}
            rowops.extend((t, s, q) for t, q in sub.items())
            for t in sub:
                users.setdefault(t, []).append(s)
            for x in users.pop(s, ()):
                other = subs[x]
                c = other.pop(s, 0)
                if not c:
                    continue
                for t, q in sub.items():
                    nv = other.get(t, 0) + c * q
                    if nv:
                        if t not in other:
                            users[t].append(x)
                        other[t] = nv
                    elif t in other:
                        del other[t]
        # equal columns span the same lattice; the general phase gets one each
        rest = list({frozenset(d.items()): d for d in map(reduce, rest) if d}.values())
        return subs, rest

    def classify(self, vec) -> tuple:
        """Class of an integer vector in the cokernel.

        Returns (torsion residues, free coordinates).  The residues follow
        ``moduli``, one per non-unit pivot, each reduced modulo its pivot; the
        zero class has all zeros in both parts.
        """
        v = list(vec)
        for t, s, q in self._rowops:
            v[t] += q * v[s]
        torsion = tuple(v[r] % d for r, d in self._pivots)
        free = tuple(v[r] for r in self._free_rows)
        return torsion, free

    def class_order(self, vec) -> int:
        """Additive order of the class of vec; 0 means infinite order."""
        torsion, free = self.classify(vec)
        if any(free):
            return 0
        order = 1
        for d, res in zip(self.moduli, torsion):
            if res:
                k = d // gcd(d, res)
                order = order * k // gcd(order, k)
        return order

    def is_zero_class(self, vec) -> bool:
        torsion, free = self.classify(vec)
        return not any(torsion) and not any(free)


def _eliminate(rows: list, cols: list, rowops: list) -> tuple:
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


# ---------------------------------------------------------------------------
# Ideal strata and Chow groups
# ---------------------------------------------------------------------------


def _stratum_columns(calc: SchubertCalc, variant: str, k: int):
    """Sparse columns (dicts row -> entry) of the codim-k ideal stratum.

    Column (lam, w) holds the Chevalley rule lam * Z_w = sum (beta^vee | lam)
    Z_{w s_beta} over the covers of w, in positive-root order; row v.pos is
    Z_v.  Columns run over w within lam; one pass over the flat covers fills
    them all.  Returns (number of rows, columns).
    """
    group = calc.group
    rows = len(group.elements_of_length(k))
    covers = group.stratum_covers(k)
    pairings = [calc.root_pairings(lam) for lam in calc.datum.degree2_lattice_basis(variant)]
    nonzero = [
        [(j, x) for j, pairing in enumerate(pairings) if (x := pairing[b])]
        for b in range(group.longest_length)
    ]
    m = len(covers)
    columns = [{} for _ in range(len(pairings) * m)]
    for i, (ps, bs) in enumerate(covers):
        for p, b in zip(ps, bs):
            for j, x in nonzero[b]:
                columns[j * m + i][p] = x
    return rows, columns


class ChowComputation:
    """Per-(type, variant) cache of stratum cokernels and class reductions."""

    def __init__(self, calc: SchubertCalc, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.calc = calc
        self.variant = variant
        self._strata: dict = {}

    def stratum(self, k: int) -> CokernelStratum:
        """The cokernel of the ideal stratum in codimension k; row w.pos is Z_w."""
        got = self._strata.get(k)
        if got is None:
            if not 1 <= k <= self.calc.group.longest_length:
                raise OutOfRangeError(f"codimension {k} out of range")
            got = CokernelStratum(*_stratum_columns(self.calc, self.variant, k))
            self._strata[k] = got
        return got

    def vector_of(self, x: SchubertExpansion) -> list:
        vec = [0] * self.stratum(x.codim).rows
        for w, c in x.coeffs.items():
            vec[w.pos] = c
        return vec

    def classify(self, x: SchubertExpansion) -> tuple:
        return self.stratum(x.codim).classify(self.vector_of(x))

    def class_order(self, x: SchubertExpansion) -> int:
        return self.stratum(x.codim).class_order(self.vector_of(x))

    def is_zero_class(self, x: SchubertExpansion) -> bool:
        return self.stratum(x.codim).is_zero_class(self.vector_of(x))


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


def _check_max_codim(calc: SchubertCalc, max_codim: int) -> None:
    n_pos = calc.group.longest_length
    if not 1 <= max_codim <= n_pos:
        raise OutOfRangeError(f"max_codim {max_codim} is outside 1..{n_pos}")


def _stratum_factors(coker: CokernelStratum) -> tuple:
    # torsion factors first, then zeros for free summands (chain order)
    return tuple(coker.torsion + [0] * coker.free_rank)


def chow_groups(
    calc: SchubertCalc,
    variant: str,
    max_codim: int,
    comp: ChowComputation | None = None,
) -> GradedAbelianGroup:
    """Additive structure of the quotient ring up to codimension max_codim.

    max_codim must lie in 1..N; anything else raises OutOfRangeError.
    """
    _check_max_codim(calc, max_codim)
    comp = comp or ChowComputation(calc, variant)
    strata = [(0, (0,))]
    for k in range(1, max_codim + 1):
        fs = _stratum_factors(comp.stratum(k))
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


def _chow_setup(family: str, rank, variant, max_codim):
    """Engine and one (presentation, computation, limit) per group form.

    variant=None means both forms for B/D and the simply connected one for
    G2/F4.  max_codim is None for the default limit, or a codimension in
    [1, N]; anything else raises OutOfRangeError before any check runs.
    """
    ct = cartan_type(family, rank)
    calc = calculus_for(ct)
    if max_codim is not None:
        _check_max_codim(calc, max_codim)
    n_pos = calc.group.longest_length
    if variant:
        variants = (variant,)
    else:
        variants = VARIANTS if ct.family in ("B", "D") else ("simply_connected",)
    runs = []
    for var in variants:
        pres = chow_presentation(ct, var)
        if max_codim is not None:
            limit = max_codim
        elif ct.family in ("G2", "F4"):
            limit = n_pos
        else:
            peak = max((g.power * g.codim for g in pres.generators), default=3)
            limit = min(2 * peak, n_pos)
        runs.append((pres, ChowComputation(calc, var), limit))
    return ct, calc, runs


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
    ct, calc, runs = _chow_setup(family, rank, variant, max_codim)
    report = VerificationReport(f"{ct.name} Chow ring checks", [])
    for pres, comp, limit in runs:
        _check_variant(report, calc, pres, comp, limit)
    return report


def _check_variant(
    report: VerificationReport,
    calc: SchubertCalc,
    pres: ChowPresentation,
    comp: ChowComputation,
    limit: int,
) -> GradedAbelianGroup | None:
    """Add the checks of one group form to report, on the strata of comp.

    Returns the additive strata (a GradedAbelianGroup), or None when
    computing them raised.
    """
    label = pres.group_name
    groups = report.check(
        f"{label}: additive strata (codim <= {limit})",
        lambda: (
            presentation_strata(pres, limit),
            chow_groups(calc, comp.variant, limit, comp),
        ),
    )
    report.check(
        f"{label}: codim-1 stratum",
        lambda: (
            tuple(sorted(g.torsion for g in pres.generators if g.codim == 1)),
            _stratum_factors(comp.stratum(1)),
        ),
    )

    def power_vanishes(gen, e):
        zero = comp.is_zero_class(_generator_power_class(calc, gen, e))
        return "zero" if e >= gen.power else "nonzero", "zero" if zero else "nonzero"

    for gen in pres.generators:
        w = calc.group.element_from_word(gen.schubert_word)
        report.check(
            f"{label}: order of [Z_{w.word_str()}]",
            lambda: (gen.torsion, comp.class_order(calc.indicator(w))),
        )
        for e in range(2, gen.power + 1):
            if e * gen.codim > limit:
                break
            report.check(
                f"{label}: {gen.symbol}^{e} {'=' if e >= gen.power else '!='} 0",
                lambda: power_vanishes(gen, e),
            )
    return groups


def chow_to_json(
    family: str,
    rank: int | None,
    variant: str,
    max_codim: int | None = None,
) -> dict:
    """JSON payload for the CLI: strata, presentation and check results."""
    ct, calc, [(pres, comp, limit)] = _chow_setup(family, rank, variant, max_codim)
    report = VerificationReport(f"{ct.name} Chow ring checks", [])
    groups = _check_variant(report, calc, pres, comp, limit)
    if groups is None:  # the strata check raised; raise its error here
        groups = chow_groups(calc, variant, limit, comp)
    return {
        "type": ct.name,
        "variant": variant,
        "strata": groups.to_json_list(),
        "presentation": pres.to_json_dict(),
        "checks": report.to_json_dict()["checks"],
    }
