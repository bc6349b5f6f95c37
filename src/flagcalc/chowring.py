"""Chow rings of the complex algebraic groups behind the supported flag
manifolds, computed as quotients by the degree-2-generated ideal
(Grothendieck, 1958: A(G) is A(G/B) modulo the degree-2 classes).

Each stratum of the quotient is the cokernel of a sparse integer matrix,
and the family picks where it is taken.  For G2 and F4 it is A(G/B): the
codimension-k piece of the ideal is spanned by the products lambda * Z_w
over a basis of the degree-2 lattice and the classes of length k-1, built
by the Chevalley rule from the upper Bruhat covers of the stratum below
(``_stratum_columns``).  For B_n and D_n it is A(G/P), P the maximal
parabolic subgroup that leaves out alpha_n: its 2^n (B) or 2^(n-1) (D)
Schubert classes are the rows, each named by a strict partition, and the
columns are c_i(S) * Z_mu, with Z_{s_n} * Z_mu in place of c_1(S) * Z_mu for
Spin, by the Pieri rule on those partitions (``_Grassmannian``, ``_pieri``;
Hiller and Boe, 1986; Pragacz, 1991): one walk down from each row of a
stratum gives every strip that lands on it, and the engine keeps that table
for both forms.  Only c_i(S) * Z_e comes from Chevalley steps, the engine's
``chern_class``.
Codimension 0 holds nothing of the ideal.  A cokernel reads its columns as
given, with no divided copy: their content g, the gcd of every entry, is 2
on the SO strata of A(G/P) and 1 elsewhere, and the units are the entries
+-g.  It is diagonalised in two phases: closed substitutions take the unit
pivots, nearly every row, and a dense Smith step the few rows left; the
pivots give the invariant factors.  The generator powers of the checks are
Leibniz products on A(G/B) for G2 and F4.  For B_n and D_n they stay on
A(G/P): tau_k^e is tau_k^(e-1) * tau_k, a sum of the strips the engine
keeps (``_Grassmannian.times``), and is classified like any other Schubert
expansion.  All arithmetic stays in exact integers.

Group forms: ``simply_connected`` takes the full weight lattice in degree 2
(Spin, G2, F4); ``special_orthogonal`` the sublattice spanned by the
t-classes, which produces the extra order-2 generator in codimension 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from weakref import WeakKeyDictionary

from .errors import OutOfRangeError
from .presentations import VerificationReport, gamma_degrees, gamma_word
from .rootdata import CartanType, cartan_type
from .schubert import SchubertCalc, SchubertExpansion, calculus_for
from .weylgroup import word_str

VARIANTS = ("simply_connected", "special_orthogonal")


# ---------------------------------------------------------------------------
# Cokernel of a stratum matrix
# ---------------------------------------------------------------------------


def _reduce(subs: dict, entries) -> dict:
    """The vector of (row, entry) pairs after the unit pivots' substitutions.

    subs maps a pivot row s to its closed substitution, a tuple of pairs
    (t, q): an entry b at row s becomes q * b at each row t.  Rows without a
    substitution keep their entries.  Returns the nonzero entries, as a dict
    row -> entry.
    """
    d = {}
    for r, v in entries:
        if not v:
            continue
        sub = subs.get(r)
        if sub is None:
            nv = d.get(r, 0) + v
            if nv:
                d[r] = nv
            else:
                del d[r]
        else:
            for t, q in sub:
                nv = d.get(t, 0) + q * v
                if nv:
                    d[t] = nv
                else:
                    del d[t]
    return d


class CokernelStratum:
    """Cokernel of one ideal stratum, with a class map for reductions.

    The columns are dicts row -> entry, read as given and never changed or
    copied.  Their content g, the gcd of every entry, is read first; the
    scan stops once the gcd is 1, at the first column on G2 and F4.  Every
    entry is a multiple of g, and row operations with integer multipliers
    keep it so: the units of the first phase are the entries +-g, and each
    is a Z/g summand, nothing for g = 1.  Two phases bring M to a diagonal
    U M V = D; column operations never change cokernel coordinates, so only
    U is kept, as one record per phase.  Every SO column of A(G/P) is even
    (c_i * Z_e is 2 tau_i), so there g = 2: the unit phase pivots on every
    row and the dense step gets none.

    The unit phase takes the columns shortest first and pivots on an entry
    u = +-g of each, at row s.  The row operations row_t += (-a_t / u) row_s,
    by exact integer quotients, clear the other entries a_t of the pivot
    column; with the column operations that clear row s elsewhere, they
    amount to a substitution: an entry b at row s becomes (-a_t / u) b at
    each row t.  Each column is reduced by the substitutions so far
    (``_reduce``) before its pivot is chosen; no row keeps the set of
    columns it meets.  The phase's record is its non-empty substitutions,
    kept closed, and the rows left without a pivot: reducing a vector by
    them equals replaying its row operations on the rows left.

    The coordinate of pivot row s under U is v_s plus multiples of v at the
    rows that pivoted before s: no later row operation touches s, and rows
    that never pivot are never the source of one.  On the pivot rows that is
    a unitriangular change of coordinates, so for g > 1 the pivot rows
    (``_units``) read v_s modulo g itself as the class map's Z/g part.

    The columns left without a unit go to the general phase, ``_eliminate``,
    on the rows left; its row operations are the second record.  The
    cokernel is the sum of Z/d over its pivots d, d = g at each unit, and
    one Z per row that never held a pivot; one gcd/lcm pass turns the pivots
    into the divisibility chain of invariant factors.  Which rows hold the
    pivots depends on the order of the columns, the invariant factors do not.
    """

    def __init__(self, rows: int, columns: list):
        self.rows = rows
        g = 0  # the content: the gcd of every entry, read until it is 1
        for col in columns:
            g = gcd(g, *col.values())
            if g == 1:
                break
        self._g = g = g or 1
        subs, rest = self._unit_phase(rows, columns, g)
        self._units = list(subs) if g > 1 else []  # the unit pivot rows, each a Z/g
        self._left = [r for r in range(rows) if r not in subs]
        self._subs = {s: sub for s, sub in subs.items() if sub}
        self._rowops = []
        pivots, self._free_rows = self._eliminate(self._left, rest, self._rowops)
        self._pivots = [(i, d) for i, d in pivots if d > 1]
        self.moduli = (g,) * len(self._units) + tuple(d for _, d in self._pivots)
        chain = list(self.moduli)
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                c = gcd(chain[i], chain[j])
                chain[i], chain[j] = c, chain[i] * chain[j] // c
        self.invariant_factors = [1] * (len(subs) + len(pivots) - len(chain)) + chain
        self.torsion = [d for d in chain if d > 1]
        self.free_rank = len(self._free_rows)

    @staticmethod
    def _unit_phase(rows: int, columns, g: int) -> tuple:
        """(substitution per unit pivot row, iterator of the reduced columns left).

        g is the content of the columns, and the units are the entries +-g.
        The substitution of pivot row s pairs each row t with its multiplier
        q = -a_t / u, an exact quotient.  When row s becomes a pivot, the
        substitutions that name s take in its own through ``_reduce``, so
        they stay closed.  The pivot is the first unit of the column: the
        strata are small (at most 94 rows and 470 columns, F4's codim 12; at
        most 14 rows on A(G/P) up to B8, 124 on B12), so no choice among the
        units pays for itself.  Tuples, not dicts, keep the substitutions
        small: most are empty, and a stratum keeps the rest.  Once each of
        the rows holds a pivot, all are empty and the columns not yet taken
        reduce to 0, so the phase stops there.
        """
        subs: dict = {}  # pivot row -> ((t, q), ...)
        users: dict = {}  # row -> pivot rows whose substitution may name it
        rest = []
        for col in sorted(columns, key=len):
            if len(subs) == rows:
                break
            d = _reduce(subs, col.items())
            for s, u in d.items():
                if u == g or u == -g:
                    break
            else:
                if d:
                    rest.append(d)
                continue
            del d[s]
            sub = subs[s] = tuple((t, -a // u) for t, a in d.items())
            for t in d:
                users.setdefault(t, set()).add(s)
            for x in users.pop(s, ()):
                subs[x] = tuple(_reduce({s: sub}, subs[x]).items())
                for t in d:
                    users[t].add(x)
        return subs, (_reduce(subs, d.items()) for d in rest)

    @staticmethod
    def _eliminate(rows: list, cols, rowops: list) -> tuple:
        """The general phase: a dense Smith step on cols (dicts row -> entry).

        The unit phase leaves few rows: 1 on every stratum of G2 and F4, none
        on the SO strata of A(G/P), whose units are the entries +-2, and
        for Spin at most 2 up to B8 and D8, 6 on B10 and 23 of 124 on B12.
        So each row is one list, over the distinct columns, and the matrix
        holds the rows not yet pivoted.  Each step pivots on an entry v of
        least absolute value, found by a scan of the whole matrix: on the
        Spin strata from rank 12 up that scan is a cost.  Floor row
        operations leave remainders in the rest of its column and are
        appended to rowops as (t, s, q), row_t += q * row_s; remainder column
        operations do the same along its row, unrecorded.  The pivot retires
        once both are clean; otherwise the least entry has shrunk.

        Rows are numbered by their index in ``rows``.  Returns (pivots, free
        rows): the pivots as pairs (row, |v|) in retirement order, and the
        rows, sorted, that never held one.
        """
        distinct = dict.fromkeys(tuple(col.get(r, 0) for r in rows) for col in cols)
        distinct.pop((0,) * len(rows), None)
        if not distinct:
            return [], list(range(len(rows)))
        matrix = dict(enumerate(map(list, zip(*distinct))))
        pivots = []
        while True:
            entries = [(abs(a), i, j) for i, row in matrix.items() for j, a in enumerate(row) if a]
            if not entries:
                return pivots, list(matrix)
            _, i, j = min(entries)
            row = matrix[i]
            v = row[j]
            for i2, row2 in matrix.items():
                if row2[j] and i2 != i:
                    q = -(row2[j] // v)
                    matrix[i2] = [x + q * y for x, y in zip(row2, row)]
                    rowops.append((i2, i, q))
            rest = [(row2, row2[j]) for i2, row2 in matrix.items() if row2[j] and i2 != i]
            for j2, b in enumerate(row):
                if b and j2 != j:
                    q = b // v
                    row[j2] = b - q * v
                    for row2, a in rest:
                        row2[j2] -= q * a
            if not rest and row.count(0) == len(row) - 1:
                del matrix[i]
                pivots.append((i, abs(v)))

    def classify(self, vec) -> tuple:
        """Class of an integer vector in the cokernel.

        Returns (torsion residues, free coordinates).  The residues follow
        ``moduli``, one per pivot whose modulus is not 1, each reduced modulo
        it: first v at the unit pivot rows modulo g, then the general phase's
        pivots.  The zero class has all zeros in both parts.
        """
        d = _reduce(self._subs, enumerate(vec))
        v = [d.get(r, 0) for r in self._left]
        for t, s, q in self._rowops:
            v[t] += q * v[s]
        units = tuple(vec[s] % self._g for s in self._units)
        torsion = units + tuple(v[i] % p for i, p in self._pivots)
        free = tuple(v[i] for i in self._free_rows)
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


# ---------------------------------------------------------------------------
# Ideal strata and Chow groups
# ---------------------------------------------------------------------------


def _stratum_columns(calc: SchubertCalc, variant: str, k: int):
    """Sparse columns (dicts row -> entry) of the codim-k ideal stratum of
    A(G/B): the route of G2 and F4, and the oracle of the B/D route.

    Column (lam, y) holds the Chevalley rule lam * Z_y = sum (beta^vee | lam)
    Z_{y s_beta} over the covers of y; Z_v is the row of v in the stratum k.
    Columns run over y within lam, and one pass over the stratum k - 1 fills
    them all, y by y, from the upper covers of ``WeylGroup.cover_ids``.
    The lams run over the degree-2 lattice of the group form: the fundamental
    weights for ``simply_connected``, the t-classes for
    ``special_orthogonal``.  Returns (the stratum k, columns).
    """
    group, d = calc.group, calc.datum
    classes = group.elements_of_length(k)
    row = {w.id: p for p, w in enumerate(classes)}
    below = group.elements_of_length(k - 1)
    m = len(below)
    lattice = d.fundamental_weights if variant == "simply_connected" else d.t_classes.values()
    pairings = [calc.root_pairings(lam) for lam in lattice]
    nonzero = [  # per root beta: (j * m, (beta^vee | lam_j)) where that is nonzero
        [(j * m, x) for j, pairing in enumerate(pairings) if (x := pairing[b])]
        for b in range(group.longest_length)
    ]
    columns = [{} for _ in range(len(pairings) * m)]
    for i, y in enumerate(below):
        for v, b in zip(*group.cover_ids(y)):
            p = row[v]
            for jm, x in nonzero[b]:
                columns[jm + i][p] = x
    return classes, columns


class _Grassmannian:
    """The ideal strata of B_n and D_n on A(G/P), P = P_n the maximal
    parabolic subgroup that leaves out alpha_n; one per engine, for both
    group forms.

    G/B is the complete flag bundle of the tautological rank-n bundle S on
    G/P, so A(G/B) = A(G/P)[t_1..t_n] / (e_i(t) - c_i(S)) (Fulton's
    flag-bundle formula).  The SO ideal (t_1, ..., t_n) thus leaves
    A(G/P) / (c_1(S), ..., c_n(S)), and the Spin ideal adds omega_n =
    Z_{s_n}.  A(G/P) has the basis Z_w, w with right descents in {n}: 2^n
    classes for B_n, 2^(n-1) for D_n.

    Each class is named by its strict partition lam inside rho_m = (m, ...,
    1), m = n for B_n and n - 1 for D_n, with |lam| = l(w): these are the
    P-tilde classes tau_lam.  The classes are walked from the identity one
    box at a time, and adding the box (r, c), r <= c, of the shifted diagram
    multiplies w on the left by s_a.  For B_n, a = n - (c - r).  For D_n,
    a = n - 1 - (c - r) off the diagonal, and a box (r, r) on it has a = n
    for odd r and n - 1 for even r.  So the walk interns only classes of
    A(G/P) and enumerates no stratum.

    Stratum k has one row per class of length k, in the order of their
    partitions; ``_row_of`` maps a partition to it.  Its columns are c_i *
    Z_mu for SO.  For Spin they are Z_{s_n} * Z_mu, where Z_{s_n} = tau_1,
    and c_i * Z_mu for i >= 2: P is maximal, so A^1(G/P) = Z tau_1 and every
    c_1 * Z_mu is a multiple of tau_1 * Z_mu.  c_i * Z_e = e_i(t_1..t_n) is
    computed, not taken from the paper: it is the engine's Chern class
    (``SchubertCalc.chern_class``), raised by Chevalley steps from the
    identity.  Being of degree i it is a * tau_i, a special class, and c_i *
    Z_mu is a times the product tau_i * tau_mu by the Pieri rule (Hiller and
    Boe, Adv. Math. 62, 1986; Pragacz, LNM 1478, 1991).  So the columns
    intern nothing outside W^P but the support of the partial Chern classes
    and the covers their steps scan.

    The strips tau_j * tau_mu are kept by the codim k = |mu| + j they land
    in: the table of k holds, for each j <= min(m, k), one column per mu of
    length k - j, listed by row.  Its first reader (``_strip``) builds it
    whole, by one walk down from each row of stratum k (``_pieri``), and the
    table is kept for both group forms: the SO c_1 column and the Spin tau_1
    column read the same strip 1, and the power checks read strip k for x *
    tau_k (``times``).  The columns are built from the strips when their
    stratum is, and not kept.  Each stratum builds only the tables it reads,
    so strata come out the same in any request order.  Nothing here refers
    to the engine, which ``_grassmannian`` keys it by.
    """

    def __init__(self, group):
        self._labels = _box_labels(group.datum.cartan_type.family, group.rank)
        self._levels = [(group.identity,)]
        self.partition = {group.identity.id: ()}  # element id -> its strict partition
        self._row_of = {(): 0}  # strict partition -> its row
        self._tables: dict = {}  # codim k -> [j][row of mu] -> tau_j * Z_mu, |mu| = k - j
        self._specials: dict = {}  # i -> c_i * Z_e as (j, a), a tau_j

    def classes(self, group, k: int) -> tuple:
        levels, partition, labels = self._levels, self.partition, self._labels
        while len(levels) <= k:
            found = {}  # partition -> its class
            for w in levels[-1]:
                lam = partition[w.id]
                for r, length in enumerate(lam + (0,)):
                    if r < len(labels) and length < len(labels[r]) and (
                        not r or length + 1 < lam[r - 1]
                    ):
                        mu = lam[:r] + (length + 1,) + lam[r + 1:]
                        if mu not in found:
                            found[mu] = group.simple_times(labels[r][length], w)
            order = sorted(found)
            partition.update((w.id, mu) for mu, w in found.items())
            self._row_of.update((mu, p) for p, mu in enumerate(order))
            levels.append(tuple(found[mu] for mu in order))
        return levels[k]

    def stratum_columns(self, calc: SchubertCalc, variant: str, k: int):
        """(classes, columns) of the codim-k stratum, as ``_stratum_columns``
        gives them for A(G/B)."""
        classes = self.classes(calc.group, k)
        if not classes:
            return classes, []
        spin = variant == "simply_connected"  # Z_{s_n} = tau_1 in place of c_1
        top = min(calc.rank, k) + 1
        specials = [(1, 1)] * spin + [self._special(calc, i) for i in range(1 + spin, top)]
        return classes, [
            self._column(calc, j, a, mu)
            for j, a in specials
            for mu in self.classes(calc.group, k - j)
        ]

    def _column(self, calc: SchubertCalc, j: int, a: int, mu) -> dict:
        """a * tau_j * Z_mu, as a dict row -> entry."""
        strip = self._strip(calc, mu, j) if a else {}
        return strip if a == 1 else {r: a * b for r, b in strip.items()}

    def _strip(self, calc: SchubertCalc, mu, j: int) -> dict:
        """tau_j * Z_mu, as a dict row -> coefficient: column mu of the table
        of codim |mu| + j, which its first reader builds by one ``_pieri``
        walk down from each row."""
        k = mu.length + j
        table = self._tables.get(k)
        if table is None:
            self.classes(calc.group, k)  # walks and names every class up to length k
            levels = self._levels
            table = self._tables[k] = [None] + [
                [{} for _ in levels[k - i]] for i in range(1, min(len(self._labels), k) + 1)
            ]
            for p, nu in enumerate(levels[k]):
                _pieri(self.partition[nu.id], p, table, self._row_of)
        return table[j][self._row_of[self.partition[mu.id]]]

    def times(self, calc: SchubertCalc, x: SchubertExpansion, z: SchubertExpansion):
        """x * z in A(G/P), z = a * tau_k (``_as_special``; any other class is
        a fault): a times the sum of the strips tau_k * Z_mu over the classes
        mu of x, each row read back as its class."""
        k, c = self._as_special(calc.group, z)
        out: dict = {}
        for mu, a in x.coeffs.items():
            for r, b in self._strip(calc, mu, k).items():
                out[r] = out.get(r, 0) + c * a * b
        classes = self.classes(calc.group, x.codim + k)
        return SchubertExpansion(x.codim + k, {classes[r]: v for r, v in out.items()})

    def _special(self, calc: SchubertCalc, i: int) -> tuple:
        """c_i * Z_e (``SchubertCalc.chern_class``) as (j, a), a tau_j
        (``_as_special``), kept by i; a = 0 when c_i * Z_e = 0 (c_n on D_n)."""
        got = self._specials.get(i)
        if got is None:
            got = self._specials[i] = self._as_special(calc.group, calc.chern_class(i))
        return got

    def _as_special(self, group, z: SchubertExpansion) -> tuple:
        """(j, a) with z = a tau_j: j is the codim of z, by degree, and a = 0
        when z = 0.  A class of z other than tau_j is a fault, never dropped.
        Names every class of length j first."""
        j, a = z.codim, 0
        self.classes(group, j)
        for w, a in z.coeffs.items():
            if self.partition.get(w.id) != (j,):
                raise AssertionError(f"Z_{w} is not a special class of A(G/P)")
        return j, a


def _box_labels(family: str, n: int) -> tuple:
    """Per row r of rho_m, from 0, the labels of its boxes from the diagonal
    out: the box c places right of the diagonal is added by s_a on the left,
    a = labels[r][c] (see ``_Grassmannian``)."""
    if family == "B":
        return tuple(tuple(n - c for c in range(n - r)) for r in range(n))
    return tuple((n - r % 2, *(n - 1 - c for c in range(1, n - 1 - r))) for r in range(n - 1))


def _pieri(nu: tuple, p: int, table: list, names) -> None:
    """Writes row p, the class tau_nu, into every column of table that holds it.

    table[j][names[lam]] is tau_j * tau_lam, a dict row -> coefficient, for
    1 <= j < len(table).  tau_j * tau_lam is the sum of 2^(N - 1) tau_nu
    over the strict nu inside rho_m with |nu| = |lam| + j and nu_1 >= lam_1
    >= nu_2 >= lam_2 >= ...; N is the number of rows that lose boxes from nu
    to lam, less the number of rows r that start at the end of row r - 1 of
    lam, nu_r = lam_(r-1), and so join its boxes.  That is Pieri's rule for
    the P-tilde classes (Hiller and Boe, 1986; Pragacz, 1991), read from nu
    down: a strict lam never has nu_r = lam_(r-1) = lam_r.

    The walk takes lam_r from min(nu_r, lam_(r-1) - 1) down to nu_(r+1), row
    by row, and stops once the strip is longer than len(table) - 1, which is
    min(m, |nu|) as ``_Grassmannian._strip`` builds it.  Only the last
    row of lam can be 0.  Called for the rows of a stratum in order, it
    appends each column's entries in row order, which is the lexicographic
    order of the partitions: the unit phase meets the entries of a column,
    and picks its pivot, in that order.
    """
    top, lows = len(table) - 1, (*nu[1:], 0)

    def shrink(r: int, head: tuple, size: int, n: int) -> None:
        # head: rows 0..r-1 of lam
        v = nu[r]
        joins = r and v == head[-1]  # row r of nu starts at the end of row r - 1 of lam
        for x in range(min(v, head[-1] - 1) if r else v, lows[r] - 1, -1):
            s = size + v - x
            if s > top:
                return
            nn = n + (x < v and not joins)  # N counts row r if it loses boxes and joins none
            lam = head + (x,) if x else head
            if r + 1 < len(nu):
                shrink(r + 1, lam, s, nn)
            elif s:
                table[s][names[lam]][p] = 1 << (nn - 1)

    shrink(0, (), 0, 0)


_GRASSMANNIANS: WeakKeyDictionary = WeakKeyDictionary()  # engine -> its _Grassmannian


def _grassmannian(calc: SchubertCalc) -> _Grassmannian:
    """The B/D strata data of an engine, freed with the engine."""
    got = _GRASSMANNIANS.get(calc)
    if got is None:
        got = _GRASSMANNIANS[calc] = _Grassmannian(calc.group)
    return got


class ChowComputation:
    """Per-(type, variant) cache of stratum cokernels and class reductions.

    The family picks the route: G2 and F4 take the strata of A(G/B) from
    ``_stratum_columns``, B_n and D_n those of A(G/P) from the engine's
    ``_Grassmannian``.  Either route names the classes of a stratum, and
    ``stratum`` maps the id of each to its row in ``row``.  A stratum is
    built on first request, from nothing but the engine, and ``groups``
    reads the additive structure off the strata kept.  The family also picks
    how the generator powers of the checks are taken (``power``).
    """

    def __init__(self, calc: SchubertCalc, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.calc = calc
        self.variant = variant
        self._strata: dict = {}
        self._grass = _grassmannian(calc) if calc.cartan_type.family in ("B", "D") else None
        self._columns = self._grass.stratum_columns if self._grass else _stratum_columns
        self.row: dict = {}  # element id -> its row in its stratum
        self._powers: dict = {}  # (w, e) -> Z_w^e, for the powers that were computed

    def stratum(self, k: int) -> CokernelStratum:
        """The cokernel of the ideal stratum in codimension k; its rows are
        the classes that ``vector_of`` reads."""
        got = self._strata.get(k)
        if got is None:
            if not 0 <= k <= self.calc.group.longest_length:
                raise OutOfRangeError(f"codimension {k} out of range")
            # codimension 0 holds nothing of the ideal: Z, one row for Z_e
            identity = ((self.calc.group.identity,), [])
            classes, cols = self._columns(self.calc, self.variant, k) if k else identity
            self.row.update((w.id, p) for p, w in enumerate(classes))
            got = self._strata[k] = CokernelStratum(len(classes), cols)
        return got

    def groups(self, max_codim: int) -> GradedAbelianGroup:
        """Additive structure of the quotient ring up to codimension
        max_codim, from the strata kept; max_codim must lie in 1..N, anything
        else raises OutOfRangeError."""
        _check_max_codim(self.calc, max_codim)
        factors = ((k, _stratum_factors(self.stratum(k))) for k in range(max_codim + 1))
        return GradedAbelianGroup(tuple((k, fs) for k, fs in factors if fs))

    def vector_of(self, x: SchubertExpansion) -> list:
        """The coefficients of x at the rows of its stratum, read from ``row``.

        A vector has one entry per class of the stratum: at most 94 on A(G/B)
        (F4's codim 12), and on A(G/P) the peak coefficient of the product of
        (1 + q^j) over j <= m, 14 on B8, 40 on B10, 124 on B12 and 1,314 on
        B16.  ValueError for an element that another group interned (see
        ``SchubertCalc._own``), and for a class without a row, which only a
        class outside A(G/P) lacks: a Z_w with a right descent other than n.
        """
        vec = [0] * self.stratum(x.codim).rows
        row = self.row
        for w, c in x.coeffs.items():
            r = row.get(self.calc._own(w).id)
            if r is None:
                n = self.calc.rank
                raise ValueError(
                    f"Z_{w} is outside A(G/P_{n}): it has a right descent other than {n}"
                )
            vec[r] = c
        return vec

    def classify(self, x: SchubertExpansion) -> tuple:
        return self.stratum(x.codim).classify(self.vector_of(x))

    def class_order(self, x: SchubertExpansion) -> int:
        return self.stratum(x.codim).class_order(self.vector_of(x))

    def is_zero_class(self, x: SchubertExpansion) -> bool:
        return self.stratum(x.codim).is_zero_class(self.vector_of(x))

    def power(self, w, e: int) -> SchubertExpansion:
        """Z_w^e as Z_w^(e-1) * Z_w, each power kept; one whose lower power
        raised raises again, with the same error.  G2 and F4 take Leibniz
        products on A(G/B).  On B/D, Z_w must be a special class tau_k of
        A(G/P) (anything else is a fault), and each product sums the
        engine's Pieri strips (``_Grassmannian.times``)."""
        got = self._powers.get((w, e))
        if got is None:
            calc = self.calc
            if e == 1:
                got = calc.indicator(w)
            elif self._grass is None:
                got = calc.mul_expansions(self.power(w, e - 1), self.power(w, 1))
            else:
                got = self._grass.times(calc, self.power(w, e - 1), self.power(w, 1))
            self._powers[w, e] = got
        return got


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
        return "; ".join(f"{k}: {factor_text(fs)}" for k, fs in self.strata) or "trivial"


def factor_text(factors) -> str:
    """Invariant factors as a sum of cyclic groups: 0 is Z, d is Z/d."""
    return " + ".join("Z" if f == 0 else f"Z/{f}" for f in factors)


def _check_max_codim(calc: SchubertCalc, max_codim: int) -> None:
    n_pos = calc.group.longest_length
    if not 1 <= max_codim <= n_pos:
        raise OutOfRangeError(f"max_codim {max_codim} is outside 1..{n_pos}")


def _stratum_factors(coker: CokernelStratum) -> tuple:
    # torsion factors first, then zeros for free summands (chain order)
    return tuple(coker.torsion + [0] * coker.free_rank)


def chow_groups(calc: SchubertCalc, variant: str, max_codim: int) -> GradedAbelianGroup:
    """Additive structure of the quotient ring up to codimension max_codim
    (``ChowComputation.groups``)."""
    return ChowComputation(calc, variant).groups(max_codim)


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
                    "schubert_word": word_str(g.schubert_word),
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
    m = 2 * n + 1 if ct.family == "B" else 2 * n
    neff = gamma_degrees(ct)[-1]
    gens = []
    for i in range(1, neff + 1, 2):
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


def chow_engine(family: str, rank, max_codim) -> SchubertCalc:
    """The engine of a Chow ring run, once its inputs are checked: max_codim
    is None for the default limit, or a codimension in [1, N]; anything else
    raises OutOfRangeError, and a bad family or rank UnsupportedRankError."""
    calc = calculus_for(cartan_type(family, rank))
    if max_codim is not None:
        _check_max_codim(calc, max_codim)
    return calc


def _chow_setup(family: str, rank, variant, max_codim):
    """Engine and one (presentation, computation, limit) per group form.

    variant=None means both forms for B/D and the simply connected one for
    G2/F4.  The inputs are checked by ``chow_engine`` before any check runs.
    """
    calc = chow_engine(family, rank, max_codim)
    ct = calc.cartan_type
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
    stated exponent and not before.  On B_n and D_n every check stays on
    A(G/P): the generators are special classes tau_k, and their powers are
    sums of the engine's Pieri strips (``ChowComputation.power``); G2 and F4
    take Leibniz products on A(G/B).
    """
    ct, _, runs = _chow_setup(family, rank, variant, max_codim)
    report = VerificationReport(f"{ct.name} Chow ring checks", [])
    for pres, comp, limit in runs:
        _check_variant(report, pres, comp, limit)
    return report


def _check_variant(
    report: VerificationReport,
    pres: ChowPresentation,
    comp: ChowComputation,
    limit: int,
) -> None:
    """Add the checks of one group form to report, on the strata of comp.

    The strata check reads ``comp.groups``, so the strata built for it are
    the ones every later check reads.  Each power check reads Z_w^e from
    ``comp.power``, chained on Z_w^(e-1), so a check whose lower power raised
    fails with the same error.
    """
    calc = comp.calc
    label = pres.group_name
    report.check(
        f"{label}: additive strata (codim <= {limit})",
        lambda: (presentation_strata(pres, limit), comp.groups(limit)),
    )
    report.check(
        f"{label}: codim-1 stratum",
        lambda: (
            tuple(sorted(g.torsion for g in pres.generators if g.codim == 1)),
            _stratum_factors(comp.stratum(1)),
        ),
    )

    def power_vanishes(gen, w, e):
        zero = comp.is_zero_class(comp.power(w, e))
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
                lambda: power_vanishes(gen, w, e),
            )


def chow_to_json(
    family: str,
    rank: int | None,
    variant: str,
    max_codim: int | None = None,
) -> dict:
    """JSON payload for the CLI: strata, presentation and check results.

    The strata are read (``ChowComputation.groups``) before any check runs,
    so a stratum that raises raises here, once; the checks then read the
    strata kept.
    """
    ct, _, [(pres, comp, limit)] = _chow_setup(family, rank, variant, max_codim)
    groups = comp.groups(limit)
    report = VerificationReport(f"{ct.name} Chow ring checks", [])
    _check_variant(report, pres, comp, limit)
    return {
        "type": ct.name,
        "variant": variant,
        "strata": groups.to_json_list(),
        "presentation": pres.to_json_dict(),
        "checks": report.to_json_dict()["checks"],
    }
