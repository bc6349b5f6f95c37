"""Weyl group elements, enumeration by length, and reflections.

An element is represented by how it permutes the roots (a Weyl group element
is determined by that permutation).  Roots are numbered as in
``RootDatum.indexed_roots``: the positive roots first, in ``positive_roots``
order (0..N-1), and -beta_b at N + b.  The permutation ``perm`` sends root r
to root perm[r]; it is stored as ``bytes`` when 2N <= 256 (every rank up to
11) and as a tuple above that.  Each element also carries its length and its
lexicographically minimal reduced word; words use 1-based simple-root
indices, matching the usual s_1, ..., s_l labels.  Enumeration sets the word
of each element of a stratum it fills.  An element interned outside it (by
``right_id``, a cover scan, ``root_reflection``, ``inverse`` or
``parabolic_layer``) takes its length from the caller and computes its word
from its own permutation the first time ``word`` or ``sort_key`` is read, so
words that are never printed or sorted cost nothing.

Elements are interned per group, keyed by the images of the simple roots
(rank entries, which determine the element), so equality is identity:
elements of different groups never compare equal, even for the same Cartan
type.  Each element gets a dense integer ``id`` in interning order, its right
descent set as a bit mask and, once asked for, its upper Bruhat covers; the
group keeps, per id, the table row of ids of w s_1, ..., w s_l.  ``_grow``
fills the rows between neighbouring strata; ``right_id`` is the one other
step, and fills a slot and its mirror on first use.

Each length stratum is stored once, as a tuple in lex-min word order.  An
element records no index in it: the one reader of row numbers, the Chow
layer, numbers the classes of its own strata, which are small (at most 94
classes for F4, and 14 per stratum of A(G/P) for B8).

Every product and test is an index lookup.  The permutation of w s_i is
perm composed with s_i, and its key is w applied to s_i(alpha_j); with bytes
permutations each is one ``bytes.translate`` that reads perm as its table.
w s_beta lies above w exactly when w(beta) is positive, and its key is w
applied to s_beta(alpha_j).  The reflections s_beta are built once per group,
on first use, by conjugation s_j s_gamma s_j down to the simple ones.

Bruhat covers take one route.  The upper covers w s_beta of any element w
(l(w s_beta) = l(w) + 1), which the Chevalley rule reads in products and in
every Chow-ring column, are found by a scan over the positive roots and
kept on w, as ids and packed root indices.  Before the stratum l(w) + 1 is
enumerated, a candidate w s_beta missing from the intern table is tested
before its permutation is built: l(w s_beta) - l(w) = |F_beta| -
2 #{delta in F_beta : w(delta) < 0}, F_beta the positive roots that s_beta
negates, a count over F_beta alone.  It is interned only when it is a
cover; a candidate several steps above w is dropped.  So high-rank groups
are never enumerated just to find covers.  The Chow rings of G2 and F4
scan the covers of each element of an enumerated stratum.  Those of B_n
and D_n enumerate no stratum: they walk the minimal coset representatives
of a maximal parabolic subgroup by left multiplication
(``parabolic_layer``), and their columns are Chevalley steps, which scan
the upper covers of elements met outside enumeration.

The action matrix on weight coordinates is computed on access from the
permutation, for ``act`` and the tests; no enumeration or cover path uses
it.  The tables hold ids rather than elements, and an element refers to no
group, only to the datum and its word tables, so a group's elements form no
reference cycles and are freed as soon as the group is.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from math import prod
from operator import itemgetter, methodcaller, mul

from .errors import InvalidWordError, NotARootError, OutOfRangeError
from .rootdata import Root, RootDatum, Weight


def weyl_order(roots) -> int:
    """Order of the Weyl group whose positive roots are ``roots``.

    The product over them of (ht beta + 1) / ht beta (Macdonald, 1972); for
    the positive roots of a parabolic subsystem this is |W_J|.
    """
    heights = [sum(beta.simple_coords) for beta in roots]
    return prod(h + 1 for h in heights) // prod(heights)


def length_counts(roots) -> list:
    """[|W_0|, ..., |W_N|]: how many elements of each length the Weyl group
    whose positive roots are ``roots`` has, with no enumeration.

    They are the coefficients of the Poincare polynomial, the product of
    1 + q + ... + q^m over the exponents m (Humphreys, Reflection Groups and
    Coxeter Groups, 3.15).  As many exponents are >= h as there are roots of
    height h (Kostant), so exponent m occurs #(height m) - #(height m + 1)
    times.
    """
    heights = Counter(sum(beta.simple_coords) for beta in roots)
    counts = [1]
    for m in range(1, max(heights) + 1):
        for _ in range(heights[m] - heights[m + 1]):
            # times 1 + q + ... + q^m: each new coefficient sums m + 1 old ones
            sums = [0, *accumulate(counts + [0] * m)]
            counts = [sums[k + 1] - sums[max(k - m, 0)] for k in range(len(sums) - 1)]
    return counts


def word_str(word) -> str:
    """A word as printed and as ``--word`` reads it back: "e" when empty, the
    letters run together while all are digits, comma-separated once one is
    above 9, and a single letter above 9 with a trailing comma ("10,"), since
    "10" reads as the letters 1 and 0."""
    if not word:
        return "e"
    if max(word) <= 9:
        return "".join(map(str, word))
    return ",".join(map(str, word)) + ("," if len(word) == 1 else "")


class _LexMin:
    """Lex-min reduced words of one group's elements, from their permutations.

    Called on a root permutation, it takes the smallest left descent i
    (alpha_i is the image of a negative root) and goes on with s_i w, whose
    permutation is s_i after perm: one ``bytes.translate`` with s_i as the
    table for bytes permutations.  The group's elements share it; it holds
    the datum and the simple reflections, never the group or an element, so
    elements form no reference cycle.
    """

    __slots__ = ("datum", "_n_pos", "_alpha", "_left")

    def __init__(self, datum: RootDatum, pack):
        self.datum = datum
        self._n_pos = n_pos = datum.num_positive_roots
        self._alpha = datum.simple_indices
        simple = datum.simple_reflections
        if pack is bytes:
            pad = bytes(256 - 2 * n_pos)
            self._left = [methodcaller("translate", bytes(s) + pad) for s in simple]
        else:
            self._left = [lambda perm, s=s: tuple(map(s.__getitem__, perm)) for s in simple]

    def __call__(self, perm) -> tuple:
        word = []
        n_pos, alpha, left = self._n_pos, self._alpha, self._left
        while True:
            neg = perm[n_pos:]
            for i, a in enumerate(alpha):
                if a in neg:
                    break
            else:
                return tuple(word)
            word.append(i + 1)
            perm = left[i](perm)


class WeylElement:
    """One Weyl group element; equality is identity within its interning group."""

    __slots__ = (
        "perm", "length", "_word", "id", "descents", "_covers", "_lexmin"
    )

    def __init__(self, perm, length: int, id: int, descents: int, lexmin: _LexMin):
        self.perm = perm
        self.length = length
        self._word = None  # set by enumeration, or on first read of ``word``
        self.id = id
        self.descents = descents  # bit i-1 set when l(w s_i) < l(w)
        self._covers = None  # (ids, packed root indices), see covers
        self._lexmin = lexmin

    @property
    def word(self) -> tuple:
        """The lex-min reduced word: set when the element is enumerated, and
        otherwise computed from ``perm`` on first read."""
        got = self._word
        if got is None:
            got = self._word = self._lexmin(self.perm)
        return got

    @property
    def matrix(self) -> tuple:
        """The action on weight coordinates, as a tuple of integer rows.

        Row i pairs a weight with the coroot of w^{-1}(alpha_i), since
        <w(lam), alpha_i^vee> = <lam, w^{-1}(alpha_i)^vee>.  ``act`` applies
        it to a weight; the tests substitute it into polynomials.
        """
        d, perm = self._lexmin.datum, self.perm
        return tuple(
            d.indexed_roots[perm.index(a)].coroot_on_omega for a in d.simple_indices
        )

    def word_str(self) -> str:
        return word_str(self.word)

    def __str__(self):
        return self.word_str()

    def __repr__(self):
        return f"WeylElement({self.word_str()})"

    def sort_key(self):
        return (self.length, self.word)


class WeylGroup:
    """The Weyl group of a root datum, enumerated lazily by length.

    Elements are interned: the cache maps the images of the simple roots to
    WeylElement instances, and a stratum, once filled, is never mutated again.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.rank = datum.rank
        self._n_pos = n_pos = datum.num_positive_roots
        self._pack = bytes if 2 * n_pos <= 256 else tuple
        self._pad = bytes(256 - 2 * n_pos) if self._pack is bytes else ()
        self._alpha = datum.simple_indices
        # _times[i] makes the permutation of w s_{i+1} from w.perm + _pad, and
        # _times_key[i] its key, the images under w of s_{i+1}(alpha_j)
        simple = datum.simple_reflections
        self._times = [self._composer(s) for s in simple]
        self._times_key = [self._composer([s[a] for a in self._alpha]) for s in simple]
        self._key_of = self._composer(self._alpha)  # the key of a permutation
        # _signs(w.perm + _pad)[r] is 1 when w sends root r to a negative root
        if self._pack is bytes:
            self._signs = methodcaller("translate", bytes(n_pos) + bytes([1]) * n_pos + self._pad)
        else:
            self._signs = lambda perm: bytes(map(n_pos.__le__, perm))
        self._lexmin_word = _LexMin(datum, self._pack)
        self._elements: dict = {}
        self._by_id: list = []
        # _right[w.id * rank + i - 1] is the id of w s_i, None until known
        self._right: list = []
        pack = self._pack
        self.identity = self._new(pack(range(2 * n_pos)), pack(self._alpha), 0)
        self.identity._word = ()
        self._levels: list = [(self.identity,)]  # strata in lex-min word order
        self._reflections = None  # s_beta permutations and keys, on first use

    # -- element interning ---------------------------------------------------

    def _composer(self, indices):
        """Callable taking perm + self._pad to the packed (perm[i] for i in indices).

        Packed as bytes, that is one ``translate`` with perm as the table.
        """
        if self._pack is bytes:
            return bytes(indices).translate
        return itemgetter(*indices)

    def _new(self, perm, key, length: int) -> WeylElement:
        n_pos = self._n_pos
        descents = 0
        for j, x in enumerate(key):
            if x >= n_pos:
                descents |= 1 << j
        el = WeylElement(perm, length, len(self._by_id), descents, self._lexmin_word)
        self._elements[key] = el
        self._by_id.append(el)
        self._right.extend([None] * self.rank)
        return el

    def _element(self, perm, key, length: int) -> WeylElement:
        """Intern an element met outside enumeration, of a length the caller
        knows; its word is computed when first read."""
        el = self._elements.get(key)
        if el is None:
            el = self._new(perm, key, length)
        return el

    # -- basic operations ------------------------------------------------------

    def simple_reflection(self, i: int) -> WeylElement:
        if not 1 <= i <= self.rank:
            raise OutOfRangeError(f"simple index {i} out of range")
        return self.times_simple(self.identity, i)

    def element_from_word(self, word) -> WeylElement:
        """Evaluate any word in the generators (not required to be reduced)."""
        w = self.identity
        for i in word:
            if not (isinstance(i, int) and 1 <= i <= self.rank):
                raise InvalidWordError(f"letter {i!r} out of range for rank {self.rank}")
            w = self.times_simple(w, i)
        return w

    def compose(self, w: WeylElement, v: WeylElement) -> WeylElement:
        for i in v.word:
            w = self.times_simple(w, i)
        return w

    def right_id(self, k: int, i: int) -> int:
        """The id of w s_i for the element w of id k, read from w's table row.

        On first use the slot of w s_i and its mirror, the slot of w in the
        row of w s_i, are both filled, and only w s_i is interned.
        """
        slot = k * self.rank + i - 1
        j = self._right[slot]
        if j is None:
            w = self._by_id[k]
            t = w.perm + self._pad
            key = self._times_key[i - 1](t)
            v = self._elements.get(key)
            if v is None:
                length = w.length - 1 if w.descents >> (i - 1) & 1 else w.length + 1
                v = self._new(self._times[i - 1](t), key, length)
            j = self._right[slot] = v.id
            self._right[j * self.rank + i - 1] = k
        return j

    def times_simple(self, w: WeylElement, i: int) -> WeylElement:
        """w s_i (see ``right_id``)."""
        return self._by_id[self.right_id(w.id, i)]

    def inverse(self, w: WeylElement) -> WeylElement:
        """w^{-1}, from the inverse permutation; only it is interned."""
        inv = [0] * len(w.perm)
        for r, x in enumerate(w.perm):
            inv[x] = r
        inv = self._pack(inv)
        return self._element(inv, self._key_of(inv + self._pad), w.length)

    def parabolic_ascent(self, w: WeylElement) -> tuple:
        """(letters, x): the walk from w up on the right by the smallest s_i
        that keeps the left descent set D of w, and its end x = w_{0,K} w0,
        K the complement of D.

        For an ascent i of v, the left descents of v s_i are those of v plus
        the j with v(alpha_i) = alpha_j, so s_i keeps D exactly when
        v(alpha_i) is a positive root and not a simple one.  The walk reads
        permutations only, and interns x alone.
        """
        n_pos, alpha, pad = self._n_pos, self._alpha, self._pad
        simple = frozenset(alpha)
        perm, letters = w.perm, []
        while True:
            t = perm + pad
            for i, a in enumerate(alpha):
                b = t[a]
                if b < n_pos and b not in simple:
                    break
            else:
                return letters, self._element(perm, self._key_of(t), w.length + len(letters))
            letters.append(i + 1)
            perm = self._times[i](t)

    def parabolic_layer(self, j: int, layer) -> tuple:
        """The next layer of minimal coset representatives of W / W_J, J every
        simple index but j: the w whose right descents lie in {j}.

        layer holds the representatives of some length k; the result holds
        those of length k + 1, in ``sort_key`` order.  Each is s_i w for some
        w of layer, since s_i v is a representative for a left descent i of
        one, v.  By Deodhar's lemma, for a left ascent i of w (w^{-1}(alpha_i)
        positive), s_i w is a representative unless w^{-1}(alpha_i) is a
        simple root alpha_m, m != j, and then s_i w = w s_m.  So one lookup in
        w.perm tells which s_i w to take, and only those are interned, from
        the permutation s_i after w.perm.
        """
        n_pos, alpha, pad = self._n_pos, self._alpha, self._pad
        others = {a for m, a in enumerate(alpha, 1) if m != j}
        left = self._lexmin_word._left
        found = {}
        for w in layer:
            perm = w.perm
            for i, a in enumerate(alpha):
                r = perm.index(a)  # w^{-1}(alpha_i)
                if r < n_pos and r not in others:
                    p = left[i](perm)
                    found[self._element(p, self._key_of(p + pad), w.length + 1)] = None
        return tuple(sorted(found, key=WeylElement.sort_key))

    def act(self, w: WeylElement, lam: Weight) -> Weight:
        if len(lam) != self.rank:
            raise ValueError(f"weight {tuple(lam)} does not have {self.rank} coordinates")
        return tuple(sum(map(mul, row, lam)) for row in w.matrix)

    def descends(self, w: WeylElement, i: int) -> bool:
        """True when l(w s_i) = l(w) - 1, i.e. when w(alpha_i) is negative."""
        return bool(w.descents >> (i - 1) & 1)

    # -- enumeration -------------------------------------------------------

    @property
    def longest_length(self) -> int:
        return self._n_pos

    def order(self) -> int:
        """|W|, by ``weyl_order`` over all the positive roots."""
        return weyl_order(self.datum.positive_roots)

    def _grow(self) -> None:
        """Enumerate the next length stratum and fill the tables it touches.

        The previous stratum is walked in lex-min word order and each element's
        ascents in increasing index, so the first element v is reached from
        carries v's lex-min word, min(word(v s_i) + (i,)) over its descents,
        and the new stratum comes out already sorted.  That first visit is
        the one by the last letter of the word: every later one comes from
        another v s_i, by another letter.  So a word already set, also one
        read before enumeration, ends in the letter of the first visit alone,
        and no set of the elements found is kept.
        """
        n = self.rank
        right, by_id = self._right, self._by_id
        elements, pad = self._elements, self._pad
        times, times_key = self._times, self._times_key
        found: list = []
        for w in self._levels[-1]:
            base = w.id * n
            t = w.perm + pad
            for i in range(n):
                if w.descents >> i & 1:
                    continue
                j = right[base + i]
                if j is None:
                    key = times_key[i](t)
                    v = elements.get(key)
                    if v is None:
                        v = self._new(times[i](t), key, w.length + 1)
                    right[base + i] = v.id
                    right[v.id * n + i] = w.id
                else:
                    v = by_id[j]
                word = v._word
                if word is None or word[-1] == i + 1:  # the first visit
                    v._word = w._word + (i + 1,)
                    found.append(v)
        self._levels.append(tuple(found))

    def elements_of_length(self, k: int) -> tuple:
        """The elements of length k, in lex-min word order."""
        if not 0 <= k <= self.longest_length:
            raise OutOfRangeError(
                f"length {k} out of range 0..{self.longest_length}"
            )
        while len(self._levels) <= k:
            self._grow()
        return self._levels[k]

    def sorted_stratum(self, k: int) -> tuple:
        return self.elements_of_length(k)

    def longest_element(self) -> WeylElement:
        top = self.elements_of_length(self.longest_length)
        (w0,) = top
        return w0

    # -- reflections and the Bruhat cover graph -----------------------------

    def _reflection_tables(self) -> tuple:
        """(perms, keys, flips): composers (see ``_composer``) for w s_beta
        and its key, and the positive roots that s_beta negates.

        Applied to w.perm + _pad, perms[b] gives the root permutation of
        w s_beta and keys[b] the images under w of s_beta(alpha_j).  Positive
        roots are numbered by height, so for beta not simple some s_j(beta) =
        gamma has a smaller index, and s_beta = s_j s_gamma s_j.  flips[b]
        holds the indices of F_beta, the positive roots that s_beta sends to
        negative ones, as bytes when the group packs bytes; |F_beta| = l(s_beta).
        """
        got = self._reflections
        if got is None:
            n_pos = self._n_pos
            perms = []
            for b in range(n_pos):
                for s in self.datum.simple_reflections:
                    g = s[b]
                    if g == n_pos + b:  # beta is the simple root of s
                        perms.append(s)
                        break
                    if g < b:
                        t = perms[g]
                        perms.append(tuple(map(s.__getitem__, map(t.__getitem__, s))))
                        break
            got = self._reflections = (
                [self._composer(p) for p in perms],
                [self._composer([p[a] for a in self._alpha]) for p in perms],
                [self._pack(d for d in range(n_pos) if p[d] >= n_pos) for p in perms],
            )
        return got

    def root_reflection(self, beta: Root) -> WeylElement:
        """The reflection in a positive root, as a group element."""
        if not self.datum.is_root(beta.omega):
            raise NotARootError(f"{beta} is not a root")
        if not beta.is_positive:
            raise NotARootError("root reflection expects a positive root")
        perms, keys, flips = self._reflection_tables()
        b = self.datum.root_index[beta.omega]
        t = self.identity.perm + self._pad
        return self._element(perms[b](t), keys[b](t), len(flips[b]))

    def _cover_scan(self, w: WeylElement) -> tuple:
        """(ids, packed root indices) of the covers w s_beta of w.

        w s_beta lies above w exactly when w(beta) is positive, and is looked
        up by its key.  A candidate missing from the intern table is no cover
        once the stratum l(w) + 1 is enumerated.  Before that, l(w s_beta) -
        l(w) = |F_beta| - 2 #{delta in F_beta : w(delta) < 0}, F_beta the
        positive roots that s_beta negates: s_beta permutes the other positive
        roots, and delta -> -s_beta(delta) pairs F_beta with itself.  So one
        ``translate`` of F_beta through the signs of w (a map over it for
        tuples) tells a cover before any permutation is built, and only
        covers are interned.  The key lookup stays first: on an enumerated
        group it settles every candidate.
        """
        k = w.length + 1
        enumerated = k < len(self._levels)
        n_pos, elements = self._n_pos, self._elements
        perms, keys, flips = self._reflection_tables()
        packed = self._pack is bytes
        perm = w.perm
        t = perm + self._pad
        signs = None  # signs[d] = 1 when w(delta_d) < 0, once a candidate needs it
        ids, bs = [], []
        for b in range(n_pos):
            if perm[b] >= n_pos:
                continue  # w s_beta < w
            key = keys[b](t)
            v = elements.get(key)
            if v is None:
                if enumerated:
                    continue
                if signs is None:
                    signs = self._signs(t)
                f = flips[b]
                if packed:
                    negated = f.translate(signs).count(1)
                else:
                    negated = sum(map(signs.__getitem__, f))
                if len(f) != 2 * negated + 1:
                    continue
                v = self._new(perms[b](t), key, k)
            if v.length == k:
                ids.append(v.id)
                bs.append(b)
        return tuple(ids), self._pack(bs)

    def cover_ids(self, w: WeylElement) -> tuple:
        """(ids, packed root indices) of the covers of w, as ``covers`` gives
        them.  They are cached on w, as integers that the garbage collector
        does not track."""
        got = w._covers
        if got is None:
            got = w._covers = self._cover_scan(w)
        return got

    def covers(self, w: WeylElement):
        """Iterator of pairs (w s_beta, index of beta) with l(w s_beta) = l(w) + 1.

        beta runs over ``datum.positive_roots`` in order.
        """
        ids, bs = self.cover_ids(w)
        return zip(map(self._by_id.__getitem__, ids), bs)
