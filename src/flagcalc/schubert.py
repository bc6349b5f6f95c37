"""Divided difference operators, Schubert expansions, Chevalley products,
Giambelli representatives and structure constants.

The central object is :class:`SchubertCalc`, one per Cartan type.  It owns
the (immutable) root datum and Weyl group together with its memo caches:

* per-variable tables for the divided difference kernel;
* the table of |W|-scaled Giambelli representatives, each in factored
  form: a set of positive roots times a polynomial part; only
  ``giambelli_poly`` reads it.  Each descent starts at the highest element
  it needs, x = w0 w_{0,J}, whose value is the product of the positive
  roots outside the parabolic subsystem Phi_J times the constant |W_J|.
  The fewer left descents an element has, the lower x and the shorter that
  product.  A step Delta_i multiplies into the polynomial part only the
  roots that s_i moves out of the set, and a value asked for is expanded
  once and stored back expanded;
* the products Z_u * Z_v of pairs of basis classes, one entry per
  unordered pair, kept as long as the engine; only products read it;
* the pairings (beta^vee | lam) with the positive roots, one tuple per
  weight lam, for the Chevalley rule in products and in the Chow rings.

A product Z_u * Z_v comes from shorter pairs by the twisted Leibniz rule of
the divided differences (Kostant-Kumar): Delta_i of the product gives every
coefficient at a w with right descent i, and a w whose descents all miss
those of u and v does not occur.  The recursion walks the lower intervals of
both factors in the right weak order and bottoms out at Z_e and at the
Chevalley rule; a product of expansions is the bilinear extension.  No
product needs a polynomial representative.

Every cache is filled idempotently with deterministic values, so concurrent
use only risks duplicated work, never wrong answers.

An expansion prints as a signed sum such as ``Z_12 - 2*Z_21``, its classes
in ``items_sorted`` order, through the renderer that polynomials use
(``polyring.signed_sum``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import NonHomogeneousError, NonIntegralExpansionError, OutOfRangeError
from .polyring import Polynomial, Rational, _norm_coeff, signed_sum
from .rootdata import CartanType, Weight, build_root_datum
from .weylgroup import WeylElement, WeylGroup, weyl_order

# Giambelli is refused for more positive roots than this (B7, D7 and up),
# before any walk.  The descent keeps its root product factored, so the cap
# bounds the size of the representative rather than the walk: on B6
# (N = 36) the class 121321432154321 has 5,553 terms and takes under a
# second, while on B7 121321432154321654321 has 113,745 terms and takes
# about 27 s and 325 MB.
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
        self._gtable: dict = {}  # element -> factored unscaled Giambelli value
        self._pairings: dict = {}  # tuple(lam) -> root_pairings(lam)
        self._pairs: dict = {}  # (u, v), u.id <= v.id -> Z_u * Z_v, see _pair

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
        """Coefficients Delta_w(f) over all w of length deg(f); exact rationals.

        Computed layer by layer: the value at w is obtained from the value at
        s_i w for the first letter i of w's reduced word, so each element costs
        one divided difference and zero layers prune their whole subtree.
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
        back down to w, on the factored value (see ``_descend``), which is
        expanded once here and stored back.  Types with more than
        GIAMBELLI_MAX_ROOTS positive roots are refused before any walk.
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
            memo[v] = self._descend(i, memo[group.times_simple(v, i)])
        roots, g = memo[w]
        if roots:
            g = self._expand_roots(roots, g)
            memo[w] = (0, g)
        return g

    def _parabolic_top(self, x: WeylElement) -> tuple:
        """The factored unscaled Giambelli value at x = w0 w_{0,J}, J the
        right ascents of x: the positive roots outside Phi_J, as a bit mask
        over root indices, and the constant |W_J|."""
        roots, inside = 0, []
        for b, r in enumerate(self.datum.positive_roots):
            if any(c and x.descents >> j & 1 for j, c in enumerate(r.simple_coords)):
                roots |= 1 << b
            else:
                inside.append(r)
        return roots, Polynomial.constant(self.rank, weyl_order(inside))

    def _descend(self, i: int, state: tuple) -> tuple:
        """Delta_i of a factored value (roots, g), the product of the positive
        roots in the mask times g.

        s_i permutes the positive roots other than alpha_i and negates
        alpha_i, so the roots beta whose image s_i beta is in the mask too
        (s_i beta = beta, or a pair {beta, s_i beta}) have an s_i-invariant
        product f, and Delta_i(f h) = f Delta_i(h) by the Leibniz rule.  Only
        the other roots are multiplied into g before Delta_i is applied.  The
        top holds each root once and a step only drops roots, so a set is
        enough; -alpha_i has an index of N or more and is never in it.
        """
        roots, g = state
        image = self.datum.simple_reflections[i - 1]
        moved, rest = 0, roots
        while rest:
            bit = rest & -rest
            rest ^= bit
            if not roots >> image[bit.bit_length() - 1] & 1:
                moved |= bit
        return roots ^ moved, self.divided_difference(i, self._expand_roots(moved, g))

    def _expand_roots(self, roots: int, g: Polynomial) -> Polynomial:
        """g times the product of the positive roots in the mask."""
        positive = self.datum.positive_roots
        while roots:
            bit = roots & -roots
            roots ^= bit
            g = g * Polynomial.linear_form(positive[bit.bit_length() - 1].omega)
        return g

    def giambelli_poly(self, w: WeylElement) -> Polynomial:
        """A degree-l(w) polynomial whose Schubert expansion is exactly Z_w."""
        return self._giambelli_unscaled(w).scale(Fraction(1, self.weyl_order))

    # -- products in the Schubert basis ---------------------------------------

    def _pair(self, u: WeylElement, v: WeylElement) -> dict:
        """Z_u * Z_v as raw coefficients, memoized per unordered pair.

        Z_e and a length-1 factor (the Chevalley rule by omega_i) are the base
        cases.  Otherwise, for each right descent i of u or v, the twisted
        Leibniz rule Delta_i(Z_u Z_v) = Delta_i Z_u * Z_v + Z_u * Delta_i Z_v
        - alpha_i * Delta_i Z_u * Delta_i Z_v, with Delta_i Z_w = Z_{w s_i}
        for a right descent i of w and 0 otherwise, gives Delta_i of the
        product from shorter pairs; and [Z_w](Z_u Z_v) = [Z_{w s_i}]
        Delta_i(Z_u Z_v) for each right descent i of w.  A w with a right
        descent outside those of u and v has coefficient 0, so every term is
        read back this way.  Each call shortens the pair, so the recursion is
        at most N calls deep (900 for B30), below Python's recursion limit.
        """
        key = (u, v) if u.id <= v.id else (v, u)
        got = self._pairs.get(key)
        if got is not None:
            return got
        if u.length > v.length:
            u, v = v, u
        if not u.length:
            got = {v: 1}
        elif u.length == 1:
            lam = self.datum.fundamental_weights[u.word[0] - 1]
            got = self._chevalley(self.root_pairings(lam), {v: 1})
        else:
            got = {}
            times_simple, pair = self.group.times_simple, self._pair
            du, dv = u.descents, v.descents
            todo = du | dv
            while todo:
                bit = todo & -todo
                todo ^= bit
                i = bit.bit_length()
                if not dv & bit:
                    terms = pair(times_simple(u, i), v)
                elif not du & bit:
                    terms = pair(u, times_simple(v, i))
                else:
                    us, vs = times_simple(u, i), times_simple(v, i)
                    terms = dict(pair(us, v))
                    get = terms.get
                    for x, c in pair(u, vs).items():
                        terms[x] = get(x, 0) + c
                    alpha = self.datum.simple_roots[i - 1].omega
                    for x, c in self._chevalley(self.root_pairings(alpha), pair(us, vs)).items():
                        terms[x] = get(x, 0) - c
                    terms = {x: c for x, c in terms.items() if c}
                got.update({times_simple(x, i): c for x, c in terms.items()})
        self._pairs[key] = got
        return got

    def _times(self, x: SchubertExpansion, y: SchubertExpansion) -> SchubertExpansion:
        """x * y, the pair products extended bilinearly.

        Coefficients are multiplied as they are, so a Fraction that does not
        cancel is kept; ``_product`` rejects it at the end.
        """
        total: dict = {}
        get = total.get
        for u, a in x.coeffs.items():
            for v, b in y.coeffs.items():
                ab = a * b
                for w, c in self._pair(u, v).items():
                    total[w] = get(w, 0) + ab * c
        return SchubertExpansion(x.codim + y.codim, total)

    def _product(self, factors, codim: int) -> SchubertExpansion:
        """Expansion of the product of (class, exponent) factors, of degree codim.

        The degree is checked against N before any work.  The factor of
        largest codimension is multiplied by each of the others in turn,
        through the products of basis classes (see ``_times``).  Every
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
        """Expansion of Z_u * Z_v, by the Leibniz rule (see ``_pair``)."""
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
