"""Divided difference operators, Schubert expansions, Chevalley products,
Giambelli representatives and structure constants.

The central object is :class:`SchubertCalc`, one per Cartan type.  It owns
the (immutable) root datum and Weyl group together with its memo caches:

* per-variable tables for the divided difference kernel, the packed rows
  Delta_i(w_i^k) that ``Polynomial.replace_powers`` reads;
* the pairings (beta^vee | lam) with the positive roots, one tuple per
  weight lam, for the Chevalley rule in products and in the Chow rings;
* the Chern classes c_l = e_l(t_1..t_r) in the Schubert basis, with their
  partial classes e_l(t_1..t_m), raised by Chevalley steps one degree at a
  time and only as far as asked (``chern_class``).

A Giambelli representative keeps nothing on the engine: each call is one
walk.  It starts at the highest element it needs, x = w0 w_{0,J}, whose
|W|-scaled value is the product of the positive roots outside the parabolic
subsystem Phi_J times the constant |W_J|.  The fewer left descents an
element has, the lower x and the shorter that product.  The value stays
factored on the way down, a set of positive roots times a polynomial part,
and a step Delta_i multiplies into the polynomial part only the roots that
s_i moves out of the set.  A descent whose polynomial part could outgrow
GIAMBELLI_MAX_TERMS is refused before its first step.

A Schubert expansion of f walks the support of Delta_w f, the w of length
up to deg f where it is nonzero, and enumerates no stratum.  Values are keyed
by the id of w^{-1}, so each step Delta_i is one ``right_id`` step,
w^{-1} s_i, in the right-multiplication table that products use too.  An
element costs one Delta_i only when all its lower neighbours are in the
support, and only the nonzero values of the top layer are inverted back and
sorted.

Products keep no cache on the engine: each product memoizes its states for
that call only.  A product x * y of two expansions comes from lower degrees
by the twisted Leibniz rule of the divided differences (Kostant-Kumar),
applied to whole classes: a state (a, b) stands for (Delta_a x)(Delta_b y),
Delta_i of it gives every coefficient at a w with right descent i, and a w
whose descents all miss those of both classes does not occur.  The
recursion bottoms out at degree 0 and at the Chevalley rule in degree 1.  It
visits only the a with Delta_a x nonzero, not every lower interval of every
term of x.  No product needs a polynomial representative.

Engine entry points that take Weyl elements (products, the Chevalley rule,
Giambelli) raise ValueError for an element that another group interned,
since its id would index this group's tables at some other element.

Every cache is filled idempotently with deterministic values, so concurrent
use only risks duplicated work, never wrong answers.

An expansion prints as a signed sum such as ``Z_12 - 2*Z_21``, its classes
in ``items_sorted`` order, through the renderer that polynomials use
(``polyring.signed_sum``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import itemgetter, mul

from .errors import NonHomogeneousError, NonIntegralExpansionError, OutOfRangeError
from .polyring import Polynomial, Rational, _norm_coeff, power_quotients, signed_sum
from .rootdata import CartanType, Weight, build_root_datum
from .weylgroup import WeylElement, WeylGroup, weyl_order

# Giambelli is refused before any divided difference when its polynomial
# part could have more terms than this: C(t + r - 1, r - 1), the monomials of
# degree t in r variables, for t the highest degree the factored descent
# reaches (see ``_giambelli_unscaled``).  The cap is B6's w0, the product of
# all 36 positive roots in 6 variables.  B7 121321432154321654321 (t = 27,
# 1,107,568) took about 27 s and 325 MB, and B10 1 (t = 18, 4,686,825)
# 5.1 s and 121 MB.
GIAMBELLI_MAX_TERMS = comb(41, 5)


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
        return signed_sum((c, f"Z_{w.word_str()}") for w, c in self.items_sorted())

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
        self._pairings: dict = {}  # tuple(lam) -> root_pairings(lam)
        # per degree l, e_l(t_1..t_m) * Z_e for m = 0..r, keyed by element id
        self._chern = (({self.group.identity.id: 1},) * (self.datum.num_t_classes + 1),)

    # -- divided differences -------------------------------------------------

    def _dd_table(self, i: int, k: int) -> tuple:
        """Divided difference of w_i^k, as the row ``replace_powers`` reads.

        With u = s_i(w_i) = w_i - alpha_i, Delta_i(w_i^m) = (w_i^m - u^m) /
        alpha_i is the quotient that ``power_quotients`` builds row by row
        on packed term maps, one convolution with the 2-4 terms of u per
        row.  The rows per index are one tuple, replaced whole when it
        grows, so concurrent callers can only duplicate work.
        """
        rows = self._dd_tables.get(i, ())
        if len(rows) <= k:
            alpha = self.datum.simple_roots[i - 1].omega
            u = Polynomial.linear_form(
                tuple((1 if r == i - 1 else 0) - a for r, a in enumerate(alpha))
            )
            rows = self._dd_tables[i] = power_quotients(u, i - 1, rows, k)
        return rows[k]

    def _check_nvars(self, f: Polynomial) -> None:
        if f.nvars != self.rank:
            raise ValueError(f"polynomial in {f.nvars} variables, expected {self.rank}")

    def divided_difference(self, i: int, f: Polynomial) -> Polynomial:
        """Apply the i-th divided difference (f - s_i f) / alpha_i, exactly."""
        if not 1 <= i <= self.rank:
            raise OutOfRangeError(f"simple index {i} out of range")
        self._check_nvars(f)
        return f.replace_powers(i - 1, lambda k: self._dd_table(i, k))

    def delta_word(self, word, f: Polynomial) -> Polynomial:
        """Compose divided differences along an explicit word.

        The word s_{i_1} ... s_{i_k} acts as Delta_{i_1} o ... o Delta_{i_k},
        so the rightmost letter is applied first.
        """
        self._check_nvars(f)
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
        """The nonzero coefficients Delta_w(f), l(w) = deg(f); exact rationals,
        in ``items_sorted`` order.

        Computed layer by layer over the support only, each value keyed by
        the id of v = w^{-1}: for every right descent i of u, Delta_{u^{-1}}
        = Delta_i Delta_{(u s_i)^{-1}}, so the value at u is Delta_i of the
        value at its lower neighbour u s_i, whichever i is taken, and it is 0
        when any lower neighbour has value 0.  From each nonzero value at v
        the walk steps to u = v s_i along the ascents i of v, one
        ``right_id`` step each, and so reaches u once from each lower
        neighbour in the support.  A u reached from all of them, one per
        right descent, costs one divided difference; any other u is 0.  No
        stratum is enumerated; the top layer is inverted once and sorted by
        ``sort_key``, which is the stratum order.
        """
        self._check_nvars(f)
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
        by_id, shift, full = self.group._by_id, self.group.right_id, (1 << self.rank) - 1
        level = {0: f}  # the identity has id 0
        for _ in range(k):
            reached = {}  # u -> (its lower neighbours in the support, i, value at u s_i)
            for v, g in level.items():
                todo = full & ~by_id[v].descents  # the ascents of v
                while todo:
                    bit = todo & -todo
                    todo ^= bit
                    u = shift(v, bit.bit_length())
                    reached[u] = (reached.get(u, (0,))[0] + 1, bit.bit_length(), g)
            nxt = {u: self.divided_difference(i, g) for u, (n, i, g) in reached.items()
                   if n == by_id[u].descents.bit_count()}
            level = {u: h for u, h in nxt.items() if not h.is_zero()}
        out = [(self.group.inverse(by_id[v]), g.constant_term()) for v, g in level.items()]
        return dict(sorted(out, key=lambda wc: wc[0].sort_key()))

    def schubert_expand(self, f: Polynomial) -> SchubertExpansion:
        """Expansion of the class of f in the Schubert basis.

        Every coefficient must come out an integer; otherwise f is not an
        integral class and NonIntegralExpansionError is raised.
        """
        return _integral(max(f.degree(), 0), self._expand_raw(f))

    def indicator(self, w: WeylElement) -> SchubertExpansion:
        return SchubertExpansion(w.length, {w: 1})

    # -- Chevalley rule -------------------------------------------------------

    def root_pairings(self, lam: Weight) -> tuple:
        """(beta^vee | lam) for each positive root beta, in positive-root order.

        The coroot coordinates are integers, so an integral weight gets plain
        integer pairings.  Memoized per weight, as a tuple.
        """
        key = tuple(lam)
        got = self._pairings.get(key)
        if got is None:
            if len(key) != self.rank:
                raise ValueError(f"weight {key} does not have {self.rank} coordinates")
            got = self._pairings[key] = tuple(
                _norm_coeff(sum(map(mul, beta.coroot_on_omega, key)))
                for beta in self.datum.positive_roots
            )
        return got

    def _chevalley(self, pairing, coeffs: dict) -> dict:
        """The Chevalley rule on raw coefficients keyed by element id:
        c Z_w -> c pairing[b] Z_{w s_beta_b}."""
        out: dict = {}
        get = out.get
        by_id, cover_ids = self.group._by_id, self.group.cover_ids
        for w, c in coeffs.items():
            ids, bs = cover_ids(by_id[w])
            for v, b in zip(ids, bs):
                p = pairing[b]
                if p:
                    out[v] = get(v, 0) + c * p
        return {v: c for v, c in out.items() if c}

    def chevalley_weight(self, lam: Weight, x: SchubertExpansion) -> SchubertExpansion:
        """Multiply by the degree-2 class of a weight, extended linearly.

        For each basis class Z_w the product contributes (beta^vee | lam) Z_{w s_beta}
        over the positive roots beta with l(w s_beta) = l(w) + 1.
        """
        got = self._chevalley(self.root_pairings(lam), self._ids(x.coeffs))
        return _integral(x.codim + 1, self._from_ids(got))

    def chevalley_product(self, alpha: int, w: WeylElement) -> SchubertExpansion:
        """Expansion of Z_{s_alpha} * Z_w by the closed degree-1 rule."""
        if not 1 <= alpha <= self.rank:
            raise OutOfRangeError(f"simple index {alpha} out of range")
        return self.chevalley_weight(
            self.datum.fundamental_weights[alpha - 1], self.indicator(w)
        )

    def chern_class(self, l: int) -> SchubertExpansion:
        """c_l = e_l(t_1..t_r) * Z_e in the Schubert basis, r = num_t_classes.

        By Chevalley steps from Z_e, no polynomial formed: e_l(t_1..t_m) =
        e_l(t_1..t_(m-1)) + t_m e_(l-1)(t_1..t_(m-1)), so the partial classes
        of degree l are the running sums over m of t_m times those of degree
        l - 1.  Each degree is raised once per engine, and the tuple of
        degrees is replaced whole, so concurrent callers only duplicate work.
        """
        if not 0 <= l <= self.datum.num_t_classes:
            raise OutOfRangeError(f"c_{l} is out of range for {self.cartan_type}")
        levels = self._chern
        while len(levels) <= l:
            out = [{}]
            for t, below in zip(self.datum.t_vectors, levels[-1]):
                acc = dict(out[-1])
                for v, c in self._chevalley(self.root_pairings(t), below).items():
                    acc[v] = acc.get(v, 0) + c
                out.append({v: c for v, c in acc.items() if c})
            levels = self._chern = (*levels, tuple(out))
        return SchubertExpansion(l, self._from_ids(levels[l][-1]))

    # -- Giambelli representatives ---------------------------------------------

    def _giambelli_unscaled(self, w: WeylElement) -> Polynomial:
        """|W| times the Giambelli representative; integer coefficients.

        The value is Delta_{w^{-1} w0} of the product of the positive roots
        (Bernstein-Gelfand-Gelfand), but the chain starts lower.  From w the
        walk ascends on the right only by s_i that keep the left descent set
        D of w (``WeylGroup.parabolic_ascent``, which interns only its end),
        so it ends at x = w_{0,K} w0 for K the complement of D.  With
        J the right ascents of x, x = w0 w_{0,J}; the product of the roots
        outside Phi_J is W_J-invariant and Delta_{w_{0,J}} of the product of
        Phi_J^+ is |W_J|, so the value at x is |W_J| times the product of the
        positive roots outside Phi_J.  One divided difference per step leads
        back down to w, on a factored value: a set of positive roots times a
        polynomial part.

        s_i permutes the positive roots other than alpha_i and negates
        alpha_i, so the roots beta whose image s_i beta is in the set too
        (s_i beta = beta, or a pair {beta, s_i beta}) have an s_i-invariant
        product f, and Delta_i(f h) = f Delta_i(h) by the Leibniz rule.  A
        step multiplies into the polynomial part only the other roots, the
        ones s_i moves out of the set, before Delta_i is applied.  The top
        holds each root once and a step only drops roots, so a set is
        enough; -alpha_i has an index of N or more and is never in it.

        One pass over the root sets alone, with no polynomial, records the
        moved roots of every step and the highest degree t the polynomial
        part reaches: the part multiplied in at a step has the degree of the
        part so far plus the moved roots, a divided difference lowers it by
        one, and the value at w is expanded at degree l(w).  The descent is
        refused before any Delta_i when C(t + r - 1, r - 1), the monomials of
        degree t in r variables, exceeds GIAMBELLI_MAX_TERMS.  Nothing is
        kept on the engine but the Delta_i tables and the interned top.
        """
        letters, top = self.group.parabolic_ascent(w)
        roots, g = self._parabolic_top(top)
        image = self.datum.simple_reflections
        steps, t, degree = [], w.length, 0
        for i in reversed(letters):
            s = image[i - 1]
            moved = {b for b in roots if s[b] not in roots}
            t = max(t, degree + len(moved))
            degree += len(moved) - 1
            roots = roots - moved
            steps.append((i, moved))
        size = comb(t + self.rank - 1, self.rank - 1)
        if size > GIAMBELLI_MAX_TERMS:
            raise OutOfRangeError(
                f"Giambelli of Z_{w} reaches degree {t} in {self.rank} variables, up to"
                f" {size:,} terms; at most {GIAMBELLI_MAX_TERMS:,} are supported"
            )
        for i, moved in steps:
            g = self.divided_difference(i, self._expand_roots(moved, g))
        return self._expand_roots(roots, g)

    def _parabolic_top(self, x: WeylElement) -> tuple:
        """The factored unscaled Giambelli value at x = w0 w_{0,J}, J the
        right ascents of x: the positive roots outside Phi_J, as a frozenset
        of root indices, and the constant |W_J|."""
        roots, inside = [], []
        for b, r in enumerate(self.datum.positive_roots):
            if any(c and x.descents >> j & 1 for j, c in enumerate(r.simple_coords)):
                roots.append(b)
            else:
                inside.append(r)
        return frozenset(roots), Polynomial.constant(self.rank, weyl_order(inside))

    def _expand_roots(self, roots, g: Polynomial) -> Polynomial:
        """g times the product of the positive roots in the set, in increasing
        index order."""
        positive = self.datum.positive_roots
        for b in sorted(roots):
            g = g * Polynomial.linear_form(positive[b].omega)
        return g

    def giambelli_poly(self, w: WeylElement) -> Polynomial:
        """A degree-l(w) polynomial whose Schubert expansion is exactly Z_w."""
        self._own(w)
        return self._giambelli_unscaled(w).scale(Fraction(1, self.weyl_order))

    # -- products in the Schubert basis ---------------------------------------

    def _own(self, w: WeylElement) -> WeylElement:
        """w itself; ValueError when another group interned w, whose id
        would index this group's tables at some other element."""
        by_id = self.group._by_id
        if w.id >= len(by_id) or by_id[w.id] is not w:
            raise ValueError(f"Z_{w} is an element of another Weyl group")
        return w

    def _ids(self, coeffs: dict) -> dict:
        """Coefficients keyed by element id, each element checked by ``_own``."""
        own = self._own
        return {own(w).id: c for w, c in coeffs.items()}

    def _from_ids(self, coeffs: dict) -> dict:
        """Coefficients keyed by element, from coefficients keyed by id."""
        by_id = self.group._by_id
        return {by_id[w]: c for w, c in coeffs.items()}

    def _times(self, x: dict, y: dict) -> dict:
        """x * y on coefficients keyed by element id, by the twisted Leibniz rule.

        A state (a, b) stands for (Delta_a x)(Delta_b y), where Delta_a of
        Z_u is Z_{u a^-1} when l(u a^-1) = l(u) - l(a) and 0 otherwise.  For
        each i among the right descents of the terms of Delta_a x or
        Delta_b y,
            Delta_i((Delta_a x)(Delta_b y)) = Q(s_i a, b) + Q(a, s_i b)
                                              - alpha_i * Q(s_i a, s_i b),
        where Q(s_i a, .) is dropped when i is no descent of Delta_a x (then
        Delta_i Delta_a x = 0), and likewise for b.  The coefficient of the
        product at w is [Z_{w s_i}] of Delta_i of the product, for each right
        descent i of w; a w with a right descent outside those of both
        classes has coefficient 0, so every term is read back this way.
        Degree 0 is a scalar, and degree 1, a sum c_j Z_{s_j}, is the
        Chevalley rule by the weight sum c_j omega_j.

        A state is keyed by the ids of a^-1 and b^-1, so s_i a is one
        ``right_id`` step in the right-multiplication table; the derived
        classes and the states are memoized for this call only.  Each state is one frame
        deeper and of lower degree, so the recursion is at most N deep (900
        for B30), below Python's recursion limit.  Coefficients are
        multiplied as they are, so a Fraction that does not cancel is kept;
        ``_product`` rejects it at the end.
        """
        if not x or not y:
            return {}
        d, by_id, shift = self.datum, self.group._by_id, self.group.right_id
        fundamental = [self.root_pairings(lam) for lam in d.fundamental_weights]
        alphas = [self.root_pairings(r.omega) for r in d.simple_roots]
        chevalley = self._chevalley

        def derived(coeffs: dict, degree: int) -> tuple:
            """(coeffs, their right descents as a mask, degree, the pairings of
            their weight when the degree is 1)."""
            mask = 0
            for w in coeffs:
                mask |= by_id[w].descents
            if degree != 1:
                return coeffs, mask, degree, None
            cs = coeffs.values()  # on the Z_{s_j}; s_j has the one descent j
            rows = [fundamental[by_id[w].descents.bit_length() - 1] for w in coeffs]
            return coeffs, mask, degree, [sum(map(mul, cs, col)) for col in zip(*rows)]

        def step(table: dict, k: int, i: int) -> int:
            """The key of s_i a (the id of a^-1 s_i) for a of key k, with
            Delta_{s_i a} of the table's class filled in."""
            j = shift(k, i)
            if j not in table:
                coeffs, _, degree, _ = table[k]
                bit = 1 << (i - 1)
                table[j] = derived(
                    {shift(w, i): c for w, c in coeffs.items() if by_id[w].descents & bit},
                    degree - 1,
                )
            return j

        # key -> derived class of x (y); key 0 is the identity, Delta_e x = x
        xs = {0: derived(x, by_id[next(iter(x))].length)}
        ys = xs if y is x else {0: derived(y, by_id[next(iter(y))].length)}
        memo: dict = {}

        def product(ka: int, kb: int) -> dict:
            if ys is xs and ka > kb:
                ka, kb = kb, ka  # (Delta_a x)(Delta_b x) = (Delta_b x)(Delta_a x)
            key = (ka, kb)
            got = memo.get(key)
            if got is not None:
                return got
            cx, mx, dx, px = xs[ka]
            cy, my, dy, py = ys[kb]
            if min(dx, dy) <= 1:
                if dx > dy:
                    cx, dx, px, cy = cy, dy, py, cx
                if dx:
                    got = chevalley(px, cy)
                else:
                    (c,) = cx.values()
                    got = {w: c * v for w, v in cy.items()}
            else:
                got = {}
                todo = mx | my
                while todo:
                    bit = todo & -todo
                    todo ^= bit
                    i = bit.bit_length()
                    if not my & bit:
                        terms = product(step(xs, ka, i), kb)
                    elif not mx & bit:
                        terms = product(ka, step(ys, kb, i))
                    else:
                        sa, sb = step(xs, ka, i), step(ys, kb, i)
                        terms = dict(product(sa, kb))
                        get = terms.get
                        for w, c in product(ka, sb).items():
                            terms[w] = get(w, 0) + c
                        for w, c in chevalley(alphas[i - 1], product(sa, sb)).items():
                            terms[w] = get(w, 0) - c
                    for w, c in terms.items():
                        if c:
                            got[shift(w, i)] = c
            memo[key] = got
            return got

        got = product(0, 0)
        del product  # its closure refers to it: free the states now, not at a collection
        return got

    def _product(self, factors, codim: int) -> SchubertExpansion:
        """Expansion of the product of (class, exponent) factors, of degree codim.

        The degree is checked against N before any work.  The factor of
        largest codimension is multiplied by each of the others in turn, by
        the Leibniz recursion on whole classes (see ``_times``).  Every
        coefficient of the result must be an integer.
        """
        if codim > self.group.longest_length:
            raise OutOfRangeError(
                "product degree exceeds the dimension of the flag manifold"
            )
        pending = []
        for x, e in factors:
            pending += [(x.codim, self._ids(x.coeffs))] * e
        pending.sort(key=itemgetter(0))
        if not pending:
            return self.indicator(self.group.identity)
        _, out = pending.pop()
        for _, x in pending:
            out = self._times(x, out)
        return _integral(codim, self._from_ids(out))

    def structure_constants(self, u: WeylElement, v: WeylElement) -> SchubertExpansion:
        """Expansion of Z_u * Z_v, by the Leibniz rule (see ``_times``)."""
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
        factors = ((a, 2),) if a is b else ((a, 1), (b, 1))
        return self._product(factors, a.codim + b.codim)

    def pow_expansion(self, a: SchubertExpansion, p: int) -> SchubertExpansion:
        """p-th power of a class; Z_e for p = 0."""
        if not isinstance(p, int) or p < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return self._product(((a, p),), a.codim * p)

    def expand_class_poly(self, f: Polynomial, scale: Rational = 1) -> SchubertExpansion:
        """Expansion of scale * f with the integrality check applied after scaling."""
        scale = Fraction(scale)
        coeffs = {w: c * scale for w, c in self._expand_raw(f).items()}
        return _integral(max(f.degree(), 0), coeffs)


@lru_cache(maxsize=None)
def calculus_for(ct: CartanType) -> SchubertCalc:
    """Shared engine per Cartan type (caches are per engine)."""
    return SchubertCalc(ct)
