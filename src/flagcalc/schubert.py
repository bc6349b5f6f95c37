"""Divided difference operators, Schubert expansions, Chevalley products,
Giambelli representatives and structure constants.

The central object is :class:`SchubertCalc`, one per Cartan type.  It owns
the (immutable) root datum and Weyl group together with two memo caches:

* per-variable tables for the divided difference kernel, and
* the table of Giambelli representatives, filled top-down from the longest
  element.

Both caches are filled idempotently with deterministic values, so concurrent
use only risks duplicated work, never wrong answers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NonHomogeneousError, NonIntegralExpansionError, OutOfRangeError
from .polyring import Polynomial, Rational, _norm_coeff
from .rootdata import CartanType, RootDatum, Weight, build_root_datum
from .weylgroup import WeylElement, WeylGroup


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


class SchubertCalc:
    """Schubert calculus engine for one Cartan type."""

    def __init__(self, ct: CartanType, datum: RootDatum | None = None):
        self.cartan_type = ct
        self.datum = datum if datum is not None else build_root_datum(ct)
        self.group = WeylGroup(self.datum)
        self.rank = self.datum.rank
        self.weyl_order = self.group.order()
        self._dd_tables: dict = {}
        self._gtable: dict = {}  # element -> unscaled Giambelli polynomial
        self._d_unscaled: Polynomial | None = None

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
        """(beta^vee | lam) for each positive root beta, in positive-root order."""
        return [
            _norm_coeff(sum(Fraction(c) * x for c, x in zip(beta.coroot_on_omega, lam)))
            for beta in self.datum.positive_roots
        ]

    def chevalley_weight(self, lam: Weight, x: SchubertExpansion) -> SchubertExpansion:
        """Multiply by the degree-2 class of a weight, extended linearly.

        For each basis class Z_w the product contributes (beta^vee | lam) Z_{w s_beta}
        over the positive roots beta with l(w s_beta) = l(w) + 1.
        """
        pairing = self.root_pairings(lam)
        out: dict = {}
        for w, c in x.coeffs.items():
            for v, b in self.group.covers(w):
                p = pairing[b]
                if p:
                    t = out.get(v, 0) + c * p
                    if t:
                        out[v] = t
                    elif v in out:
                        del out[v]
        for v in list(out):
            if not isinstance(out[v], int):
                c = _norm_coeff(out[v])
                if not isinstance(c, int):
                    raise NonIntegralExpansionError(
                        f"Chevalley coefficient {c} at Z_{v} is not an integer"
                    )
                out[v] = c
        return SchubertExpansion(x.codim + 1, out)

    def chevalley_product(self, alpha: int, w: WeylElement) -> SchubertExpansion:
        """Expansion of Z_{s_alpha} * Z_w by the closed degree-1 rule."""
        if not 1 <= alpha <= self.rank:
            raise OutOfRangeError(f"simple index {alpha} out of range")
        return self.chevalley_weight(
            self.datum.fundamental_weights[alpha - 1], self.indicator(w)
        )

    # -- Giambelli representatives ---------------------------------------------

    def _positive_root_product(self) -> Polynomial:
        if self._d_unscaled is None:
            p = Polynomial.one(self.rank)
            for r in self.datum.positive_roots:
                p = p * Polynomial.linear_form(r.omega)
            self._d_unscaled = p
        return self._d_unscaled

    def _giambelli_unscaled(self, w: WeylElement) -> Polynomial:
        """|W| times the Giambelli representative; integer coefficients.

        Filled by walking an ascent path up to the longest element and applying
        one divided difference per step on the way back down.
        """
        memo = self._gtable
        group = self.group
        path = []
        cur = w
        while cur not in memo:
            if cur.length == group.longest_length:
                memo[cur] = self._positive_root_product()
                break
            for i in range(1, self.rank + 1):
                if not group.descends(cur, i):
                    break
            path.append((cur, i))
            cur = group.times_simple(cur, i)
        for v, i in reversed(path):
            memo[v] = self.divided_difference(i, memo[group.times_simple(v, i)])
        return memo[w]

    def giambelli_poly(self, w: WeylElement) -> Polynomial:
        """A degree-l(w) polynomial whose Schubert expansion is exactly Z_w."""
        return self._giambelli_unscaled(w).scale(Fraction(1, self.weyl_order))

    # -- products in the Schubert basis ---------------------------------------

    def _scaled_expand(self, f: Polynomial, scale: Fraction, codim: int) -> SchubertExpansion:
        raw = self._expand_raw(f)
        coeffs = {}
        for w, c in raw.items():
            v = _norm_coeff(c * scale)
            if not isinstance(v, int):
                raise NonIntegralExpansionError(
                    f"coefficient of Z_{w} is the non-integer {v}"
                )
            if v:
                coeffs[w] = v
        return SchubertExpansion(codim, coeffs)

    def _product(self, factors, codim: int) -> SchubertExpansion:
        """Expansion of the product of (class, exponent) factors, of degree codim.

        The degree is checked against N before any representative is built;
        then the |W|-scaled representatives are multiplied and the product is
        expanded once, divided by |W| to the total exponent.
        """
        if codim > self.group.longest_length:
            raise OutOfRangeError(
                "product degree exceeds the dimension of the flag manifold"
            )
        prod = Polynomial.one(self.rank)
        total = 0
        for x, e in factors:
            prod = prod * self._unscaled_rep(x) ** e
            total += e
        return self._scaled_expand(prod, Fraction(1, self.weyl_order**total), codim)

    def structure_constants(self, u: WeylElement, v: WeylElement) -> SchubertExpansion:
        """Expansion of Z_u * Z_v, via the product of Giambelli representatives."""
        out = self._product(
            ((self.indicator(u), 1), (self.indicator(v), 1)), u.length + v.length
        )
        for w, c in out.coeffs.items():
            if c < 0:
                raise AssertionError(
                    f"negative structure constant {c} at Z_{w}; positivity violated"
                )
        return out

    def _unscaled_rep(self, x: SchubertExpansion) -> Polynomial:
        """|W| times a representative of x: the sum of c * |W| G_w."""
        p = Polynomial.zero(self.rank)
        for w, c in x.coeffs.items():
            p = p + self._giambelli_unscaled(w).scale(c)
        return p

    def mul_expansions(self, a: SchubertExpansion, b: SchubertExpansion) -> SchubertExpansion:
        """Bilinear extension of structure constants to two expansions."""
        return self._product(((a, 1), (b, 1)), a.codim + b.codim)

    def pow_expansion(self, a: SchubertExpansion, p: int) -> SchubertExpansion:
        """p-th power of a class, one expansion of the p-th power representative."""
        return self._product(((a, p),), a.codim * p)

    def expand_class_poly(self, f: Polynomial, scale: Rational = 1) -> SchubertExpansion:
        """Expansion of scale * f with the integrality check applied after scaling."""
        return self._scaled_expand(f, Fraction(scale), max(f.degree(), 0))


@lru_cache(maxsize=None)
def calculus_for(ct: CartanType) -> SchubertCalc:
    """Shared engine per Cartan type (caches are per engine)."""
    return SchubertCalc(ct)
