"""Divided difference operators, Schubert expansions, Chevalley products,
Giambelli representatives and structure constants.

The central object is :class:`SchubertCalc`, one per Cartan type.  It owns
the (immutable) root datum and Weyl group together with its memo caches:

* per-variable tables for the divided difference kernel;
* the table of |W|-scaled Giambelli representatives; only
  ``giambelli_poly`` reads it.  Each descent starts at the highest element
  it needs, x = w0 w_{0,J}, whose value is |W_J| times the product of the
  positive roots outside the parabolic subsystem Phi_J, in closed form.
  The fewer left descents an element has, the lower x and the shorter that
  product;
* per degree l, the classes of all degree-l monomials in the fundamental
  weights.  Degree l comes from degree l - 1 by one Chevalley step (the
  class of m * w_j is w_j times the class of m, for j the largest variable
  of m * w_j), starting from Z_e at degree 0;
* per degree l, a square system for writing a class of codimension l as a
  rational polynomial in the fundamental weights: one exact fraction-free
  elimination over the monomial classes both picks |W_l| monomials whose
  classes are independent over Q and factors their class matrix.

Products use the last two.  A product x * y, with x the factor of smaller
codimension l, writes x as such a polynomial P and applies P to y as
Chevalley operators, one per variable; so no factor needs a representative
of degree above l, and no product descends from the top class.

Every cache is filled idempotently with deterministic values, so concurrent
use only risks duplicated work, never wrong answers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import NonHomogeneousError, NonIntegralExpansionError, OutOfRangeError
from .polyring import Polynomial, Rational, _norm_coeff
from .rootdata import CartanType, Weight, build_root_datum
from .weylgroup import WeylElement, WeylGroup, weyl_order

# Giambelli is refused for more positive roots than this (B7, D7 and up),
# before any walk.  The costliest descents start from a product of N - 1
# roots, for elements whose left descents miss one simple root; they take
# seconds on B6 (N = 36).
GIAMBELLI_MAX_ROOTS = 36


class SchubertExpansion:
    """An integer combination of Schubert classes of one fixed codimension."""

    __slots__ = ("codim", "coeffs")

    def __init__(self, codim: int, coeffs: dict | None = None):
        clean = {}
        if coeffs:
            for w, c in coeffs.items():
                if c:
                    if w.length != codim:
                        raise ValueError(
                            f"class Z_{w} has length {w.length}, expected {codim}"
                        )
                    clean[w] = c
        self.codim = codim
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, SchubertExpansion)
            and self.codim == other.codim
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other):
        if self.codim != other.codim:
            raise ValueError("codimension mismatch")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            elif w in out:
                del out[w]
        return SchubertExpansion(self.codim, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int) -> "SchubertExpansion":
        if not c:
            return SchubertExpansion(self.codim)
        return SchubertExpansion(self.codim, {w: v * c for w, v in self.coeffs.items()})

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda wc: wc[0].sort_key())

    def coefficient(self, w: WeylElement) -> int:
        return self.coeffs.get(w, 0)

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for w, c in self.items_sorted():
            name = f"Z_{w.word_str()}"
            mag = abs(c)
            body = name if mag == 1 else f"{mag}*{name}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, first = pieces[0]
        out = ("-" if sign == "-" else "") + first
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"SchubertExpansion({self.codim}, {self})"

    def to_json_dict(self) -> dict:
        return {
            "codim": self.codim,
            "coeffs": {w.word_str(): c for w, c in self.items_sorted()},
        }


def _integral(codim: int, coeffs: dict) -> SchubertExpansion:
    """The expansion with these coefficients; each must be an integer (or an
    integral Fraction), or the class is not integral."""
    out = {}
    for w, c in coeffs.items():
        c = out[w] = _norm_coeff(c)
        if not isinstance(c, int):
            raise NonIntegralExpansionError(f"coefficient of Z_{w} is the non-integer {c}")
    return SchubertExpansion(codim, out)


class SchubertCalc:
    """Schubert calculus engine for one Cartan type."""

    def __init__(self, ct: CartanType):
        self.cartan_type = ct
        self.datum = build_root_datum(ct)
        self.group = WeylGroup(self.datum)
        self.rank = self.datum.rank
        self.weyl_order = self.group.order()
        self._dd_tables: dict = {}
        self._gtable: dict = {}  # element -> unscaled Giambelli polynomial
        # _omega_pairings[j][b] = (beta_b^vee | omega_{j+1}), an integer
        self._omega_pairings = tuple(
            tuple(self.root_pairings(om)) for om in self.datum.fundamental_weights
        )
        # degree -> {nondecreasing tuple of 0-based variables: class coeffs}
        self._monomials: dict = {0: {(): {self.group.identity: 1}}}
        self._solvers: dict = {}  # degree -> _ClassSolver

    # -- divided differences -------------------------------------------------

    def _dd_table(self, i: int, k: int) -> Polynomial:
        """Divided difference of w_i^k, filled by the Leibniz recurrence.

        With u = s_i(w_i) = w_i - alpha_i the entry for exponent m is
        sum_{j=0}^{m-1} w_i^j u^{m-1-j}, which times alpha_i equals
        w_i^m - u^m exactly; so entry m is entry m-1 times w_i plus u^{m-1}.
        The state per index is one tuple (entries, u, u^(len(entries) - 1)),
        replaced whole when it grows, so concurrent callers can only
        duplicate work.
        """
        state = self._dd_tables.get(i)
        if state is None:
            n = self.rank
            alpha = self.datum.simple_roots[i - 1].omega
            u = Polynomial.linear_form(
                tuple((1 if r == i - 1 else 0) - alpha[r] for r in range(n))
            )
            state = ([Polynomial.zero(n)], u, Polynomial.one(n))
        table, u, u_pow = state
        if len(table) <= k:
            table = table[:]
            w_i = Polynomial.variable(self.rank, i - 1)
            while len(table) <= k:
                table.append(table[-1] * w_i + u_pow)
                u_pow = u_pow * u
            self._dd_tables[i] = (table, u, u_pow)
        return table[k]

    def divided_difference(self, i: int, f: Polynomial) -> Polynomial:
        """Apply the i-th divided difference (f - s_i f) / alpha_i, exactly."""
        if not 1 <= i <= self.rank:
            raise OutOfRangeError(f"simple index {i} out of range")
        return f.replace_powers(i - 1, lambda k: self._dd_table(i, k))

    def delta_word(self, word, f: Polynomial) -> Polynomial:
        """Compose divided differences along an explicit word.

        The word s_{i_1} ... s_{i_k} acts as Delta_{i_1} o ... o Delta_{i_k},
        so the rightmost letter is applied first.
        """
        for i in reversed(tuple(word)):
            if f.is_zero():
                break
            f = self.divided_difference(i, f)
        return f

    def delta_w(self, w: WeylElement, f: Polynomial) -> Polynomial:
        """Divided difference operator of a Weyl element (along its stored word)."""
        return self.delta_word(w.word, f)

    # -- characteristic homomorphism -----------------------------------------

    def _expand_raw(self, f: Polynomial) -> dict:
        """Coefficients Delta_w(f) over all w of length deg(f); exact rationals.

        Computed layer by layer: the value at w is obtained from the value at
        s_i w for the first letter i of w's reduced word, so each element costs
        one divided difference and zero layers prune their whole subtree.
        """
        k = f.degree()
        if k < 0:
            return {}
        if not f.is_homogeneous():
            raise NonHomogeneousError(
                "schubert expansion needs a homogeneous polynomial"
            )
        if k > self.group.longest_length:
            raise OutOfRangeError(
                f"degree {k} exceeds the number of positive roots"
            )
        group = self.group
        level = {group.identity: f}
        for step in range(1, k + 1):
            nxt = {}
            for v in group.elements_of_length(step):
                g = level.get(group.left_parent(v))
                if g is None:
                    continue
                h = self.divided_difference(v.word[0], g)
                if not h.is_zero():
                    nxt[v] = h
            level = nxt
            if not level:
                break
        return {w: g.constant_term() for w, g in level.items()}

    def schubert_expand(self, f: Polynomial) -> SchubertExpansion:
        """Expansion of the class of f in the Schubert basis.

        Every coefficient must come out an integer; otherwise f is not an
        integral class and NonIntegralExpansionError is raised.
        """
        return self._scaled_expand(f, 1, max(f.degree(), 0))

    def indicator(self, w: WeylElement) -> SchubertExpansion:
        return SchubertExpansion(w.length, {w: 1})

    # -- Chevalley rule -------------------------------------------------------

    def root_pairings(self, lam: Weight) -> list:
        """(beta^vee | lam) for each positive root beta, in positive-root order.

        The coroot coordinates are integers, so an integral weight gets plain
        integer pairings.
        """
        return [
            _norm_coeff(sum(map(mul, beta.coroot_on_omega, lam)))
            for beta in self.datum.positive_roots
        ]

    def _chevalley(self, pairing, coeffs: dict) -> dict:
        """The Chevalley rule on raw coefficients: c Z_w -> c pairing[b] Z_{w s_beta_b}."""
        out: dict = {}
        get = out.get
        covers = self.group.covers
        for w, c in coeffs.items():
            for v, b in covers(w):
                p = pairing[b]
                if p:
                    out[v] = get(v, 0) + c * p
        return {v: c for v, c in out.items() if c}

    def chevalley_weight(self, lam: Weight, x: SchubertExpansion) -> SchubertExpansion:
        """Multiply by the degree-2 class of a weight, extended linearly.

        For each basis class Z_w the product contributes (beta^vee | lam) Z_{w s_beta}
        over the positive roots beta with l(w s_beta) = l(w) + 1.
        """
        return _integral(x.codim + 1, self._chevalley(self.root_pairings(lam), x.coeffs))

    def chevalley_product(self, alpha: int, w: WeylElement) -> SchubertExpansion:
        """Expansion of Z_{s_alpha} * Z_w by the closed degree-1 rule."""
        if not 1 <= alpha <= self.rank:
            raise OutOfRangeError(f"simple index {alpha} out of range")
        return self.chevalley_weight(
            self.datum.fundamental_weights[alpha - 1], self.indicator(w)
        )

    # -- Giambelli representatives ---------------------------------------------

    def _giambelli_unscaled(self, w: WeylElement) -> Polynomial:
        """|W| times the Giambelli representative; integer coefficients.

        The value is Delta_{w^{-1} w0} of the product of the positive roots
        (Bernstein-Gelfand-Gelfand), but the chain starts lower.  From w the
        walk ascends on the right only by s_i that keep the left descent set
        D of w, so it ends at x = w_{0,K} w0 for K the complement of D.  With
        J the right ascents of x, x = w0 w_{0,J}; the product of the roots
        outside Phi_J is W_J-invariant and Delta_{w_{0,J}} of the product of
        Phi_J^+ is |W_J|, so the value at x is |W_J| times the product of the
        positive roots outside Phi_J.  One divided difference per step leads
        back down to w.  Types with more than GIAMBELLI_MAX_ROOTS positive
        roots are refused before any walk.
        """
        group = self.group
        if group.longest_length > GIAMBELLI_MAX_ROOTS:
            raise OutOfRangeError(
                f"Giambelli needs the product of all {group.longest_length} positive"
                f" roots; at most {GIAMBELLI_MAX_ROOTS} are supported"
            )
        memo = self._gtable
        d = group.left_descents(w.perm)
        path = []
        cur = w
        while cur not in memo:
            for i in range(1, self.rank + 1):
                if not group.descends(cur, i):
                    up = group.times_simple(cur, i)
                    if group.left_descents(up.perm) == d:
                        break
            else:
                memo[cur] = self._parabolic_top(cur)
                break
            path.append((cur, i))
            cur = up
        for v, i in reversed(path):
            memo[v] = self.divided_difference(i, memo[group.times_simple(v, i)])
        return memo[w]

    def _parabolic_top(self, x: WeylElement) -> Polynomial:
        """|W_J| times the product of the positive roots outside Phi_J.

        J is the set of right ascents of x = w0 w_{0,J}; this is the unscaled
        Giambelli value at x.
        """
        inside, p = [], Polynomial.one(self.rank)
        for r in self.datum.positive_roots:
            if any(c and x.descents >> j & 1 for j, c in enumerate(r.simple_coords)):
                p = p * Polynomial.linear_form(r.omega)
            else:
                inside.append(r)
        return p.scale(weyl_order(inside))

    def giambelli_poly(self, w: WeylElement) -> Polynomial:
        """A degree-l(w) polynomial whose Schubert expansion is exactly Z_w."""
        return self._giambelli_unscaled(w).scale(Fraction(1, self.weyl_order))

    # -- products in the Schubert basis ---------------------------------------

    def _scaled_expand(self, f: Polynomial, scale: Fraction, codim: int) -> SchubertExpansion:
        return _integral(codim, {w: c * scale for w, c in self._expand_raw(f).items()})

    def _monomial_classes(self, degree: int) -> dict:
        """Classes of the monomials of this degree in the fundamental weights.

        Keys are nondecreasing tuples of 0-based variable indices.  The class
        of m + (j,) is the Chevalley rule by w_{j+1} on the class of m.
        """
        got = self._monomials.get(degree)
        if got is None:
            got = {}
            for m, cls in self._monomial_classes(degree - 1).items():
                for j in range(m[-1] if m else 0, self.rank):
                    got[m + (j,)] = self._chevalley(self._omega_pairings[j], cls)
            self._monomials[degree] = got
        return got

    def _class_solver(self, degree: int) -> "_ClassSolver":
        """The solver for classes of codimension ``degree``, built once."""
        got = self._solvers.get(degree)
        if got is None:
            got = self._solvers[degree] = _ClassSolver(
                self.group.sorted_stratum(degree), self._monomial_classes(degree)
            )
        return got

    def _times(self, x: SchubertExpansion, y: SchubertExpansion) -> SchubertExpansion:
        """x * y: x written as a polynomial P in the w_j, P applied to y.

        P = sum a_m m / d over the solver's monomials, and each monomial acts
        as one Chevalley operator per variable.  Monomials share prefixes, so
        each prefix is applied to y once.  A coefficient that d does not
        divide is kept as a Fraction; ``_product`` rejects it at the end.
        """
        solver = self._class_solver(x.codim)
        den = lcm(1, *(c.denominator for c in x.coeffs.values()))
        coords, d = solver.solve({w: int(c * den) for w, c in x.coeffs.items()})
        d *= den
        pairings = self._omega_pairings
        memo = {(): y.coeffs}

        def applied(m: tuple) -> dict:
            got = memo.get(m)
            if got is None:
                got = memo[m] = self._chevalley(pairings[m[-1]], applied(m[:-1]))
            return got

        total: dict = {}
        get = total.get
        for m, a in zip(solver.monomials, coords):
            if a:
                for w, c in applied(m).items():
                    total[w] = get(w, 0) + a * c
        out = {}
        for w, c in total.items():
            q, r = divmod(c, d)
            out[w] = Fraction(c, d) if r else q
        return SchubertExpansion(x.codim + y.codim, out)

    def _product(self, factors, codim: int) -> SchubertExpansion:
        """Expansion of the product of (class, exponent) factors, of degree codim.

        The degree is checked against N before any work.  The factor of
        largest codimension is kept as an expansion and every other factor
        multiplies it by Chevalley operators (see ``_times``).  Every
        coefficient of the result must be an integer.
        """
        if codim > self.group.longest_length:
            raise OutOfRangeError(
                "product degree exceeds the dimension of the flag manifold"
            )
        pending = sorted((x for x, e in factors for _ in range(e)), key=lambda x: x.codim)
        if not pending:
            return self.indicator(self.group.identity)
        out = pending.pop()
        for x in pending:
            out = self._times(x, out)
        return _integral(codim, out.coeffs)

    def structure_constants(self, u: WeylElement, v: WeylElement) -> SchubertExpansion:
        """Expansion of Z_u * Z_v, by Chevalley operators for the shorter factor."""
        out = self._product(
            ((self.indicator(u), 1), (self.indicator(v), 1)), u.length + v.length
        )
        for w, c in out.coeffs.items():
            if c < 0:
                raise AssertionError(
                    f"negative structure constant {c} at Z_{w}; positivity violated"
                )
        return out

    def mul_expansions(self, a: SchubertExpansion, b: SchubertExpansion) -> SchubertExpansion:
        """Bilinear extension of structure constants to two expansions."""
        return self._product(((a, 1), (b, 1)), a.codim + b.codim)

    def pow_expansion(self, a: SchubertExpansion, p: int) -> SchubertExpansion:
        """p-th power of a class; Z_e for p = 0."""
        return self._product(((a, p),), a.codim * p)

    def expand_class_poly(self, f: Polynomial, scale: Rational = 1) -> SchubertExpansion:
        """Expansion of scale * f with the integrality check applied after scaling."""
        return self._scaled_expand(f, Fraction(scale), max(f.degree(), 0))


class _ClassSolver:
    """Writes the classes of one codimension l as polynomials in the w_j.

    ``monomials`` are |W_l| monomials whose classes form a basis over Q:
    the first independent ones in decreasing tuple order.  One fraction-free
    (Bareiss) elimination, a column at a time, picks them and factors their
    class matrix (rows in stratum order).  Each candidate column is reduced
    by the steps kept so far; if an entry at row k or below is left, the
    first such row is swapped into place k and the column becomes step k,
    otherwise it is dependent over Q and skipped.  Step k replaces entry i
    below the pivot p_k by (p_k b_i - a_ik b_k) / p_{k-1}, the division
    exact, so every entry stays an integer; a solve replays the steps.
    """

    def __init__(self, stratum: tuple, classes: dict):
        self.size = size = len(stratum)
        self.steps = []  # (row swapped into place k, p_k, a_ik for i > k, entries above p_k)
        chosen = []
        for m in sorted(classes, reverse=True):
            col, _ = self._forward(classes[m])
            k = len(chosen)
            p = next((i for i in range(k, size) if col[i]), None)
            if p is None:
                continue
            col[k], col[p] = col[p], col[k]
            self.steps.append((p, col[k], col[k + 1:], col[:k]))
            chosen.append(m)
            if k + 1 == size:
                break
        else:
            raise AssertionError(f"monomial classes of degree {len(m)} do not span")
        self.monomials = tuple(chosen)

    def _forward(self, coeffs: dict) -> tuple:
        """(the column of coeffs after the steps kept so far, the last pivot)"""
        b = [0] * self.size
        for w, c in coeffs.items():
            b[w.pos] = c
        # a step whose b_k is zero only scales the rest by p_k / p_{k-1}, so
        # the rest is kept as its true entries times prev / last
        prev = last = 1
        for k, (p, piv, mults, _) in enumerate(self.steps):
            b[k], b[p] = b[p], b[k]
            bk = b[k]
            if bk:
                b[k] = bk * last // prev
                b[k + 1:] = [(piv * x - a * bk) // prev for x, a in zip(b[k + 1:], mults)]
                prev = piv
            last = piv
        b[len(self.steps):] = [x * last // prev for x in b[len(self.steps):]]
        return b, last

    def solve(self, coeffs: dict) -> tuple:
        """(a, d) with d * x = sum_k a_k * class(monomials[k]), all integers.

        x is the class with Schubert coefficients ``coeffs``; d is the
        determinant of the class matrix, up to sign.
        """
        b, d = self._forward(coeffs)
        # back substitution for a = d * (the rational solution), which
        # Cramer's rule makes integral, so every division is exact
        a = [d * x for x in b]
        for k in range(len(a) - 1, -1, -1):
            _, piv, _, above = self.steps[k]
            ak = a[k] = a[k] // piv
            if ak:
                a[:k] = [x - c * ak for x, c in zip(a, above)]
        return a, d


@lru_cache(maxsize=None)
def calculus_for(ct: CartanType) -> SchubertCalc:
    """Shared engine per Cartan type (caches are per engine)."""
    return SchubertCalc(ct)
