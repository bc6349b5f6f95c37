"""Weyl group elements, enumeration by length, and reflections.

An element is represented by how it permutes the roots (a Weyl group element
is determined by that permutation).  Roots are numbered as in
``RootDatum.indexed_roots``: the positive roots first, in ``positive_roots``
order (0..N-1), and -beta_b at N + b.  The permutation ``perm`` sends root r
to root perm[r]; it is stored as ``bytes`` when 2N <= 256 (every rank up to
11) and as a tuple above that.  Each element also carries its length and its
lexicographically minimal reduced word; words use 1-based simple-root
indices, matching the usual s_1, ..., s_l labels.

Elements are interned per group, keyed by the images of the simple roots
(rank entries, which determine the element), so equality is identity:
elements of different groups never compare equal, even for the same Cartan
type.  Each element gets a dense integer ``id`` in interning order, its right
descent set as a bit mask and, once asked for, its upper Bruhat covers; the
group keeps, per id, the table row of ids of w s_1, ..., w s_l and the id of
s_i w for the first letter i of the word.

Each length stratum is stored once, as a tuple in lex-min word order, and
enumerating it sets each element's ``pos``, its index in that tuple (None
before, also for elements interned earlier by ``covers`` or ``times_simple``).

Every product and test is an index lookup.  The permutation of w s_i is
perm composed with s_i, and its key is w applied to s_i(alpha_j);
w s_beta lies above w exactly when w(beta) is positive, and its key is w
applied to s_beta(alpha_j).  The reflections s_beta are built once per group,
on first use, by conjugation s_j s_gamma s_j down to the simple ones.  The
action matrix on weight coordinates is computed on access from the
permutation, for ``act``, ``weyl_substitute`` and the tests; no enumeration
or cover path uses it.  The tables hold ids rather than elements, so a
group's elements form no reference cycles and are freed as soon as the group
is.
"""

from __future__ import annotations

from math import prod
from operator import mul

from .errors import InvalidWordError, NotARootError, OutOfRangeError
from .rootdata import Root, RootDatum, Weight


def weyl_order(roots) -> int:
    """Order of the Weyl group whose positive roots are ``roots``.

    The product over them of (ht beta + 1) / ht beta (Macdonald, 1972); for
    the positive roots of a parabolic subsystem this is |W_J|.
    """
    heights = [sum(beta.simple_coords) for beta in roots]
    return prod(h + 1 for h in heights) // prod(heights)


class WeylElement:
    """One Weyl group element; equality is identity within its interning group."""

    __slots__ = ("perm", "length", "word", "id", "pos", "descents", "_covers", "_datum")

    def __init__(self, perm, length: int, word: tuple, id: int, descents: int, datum):
        self.perm = perm
        self.length = length
        self.word = word
        self.id = id
        self.pos = None  # index in the stratum tuple, once it is enumerated
        self.descents = descents  # bit i-1 set when l(w s_i) < l(w)
        self._covers = None
        self._datum = datum

    @property
    def matrix(self) -> tuple:
        """The action on weight coordinates, as a tuple of integer rows.

        Row i pairs a weight with the coroot of w^{-1}(alpha_i), since
        <w(lam), alpha_i^vee> = <lam, w^{-1}(alpha_i)^vee>.
        """
        d, perm = self._datum, self.perm
        return tuple(
            d.indexed_roots[perm.index(a)].coroot_on_omega for a in d.simple_indices
        )

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    def word_str(self) -> str:
        if not self.word:
            return "e"
        if max(self.word) <= 9:
            return "".join(str(i) for i in self.word)
        return ",".join(str(i) for i in self.word)

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
        self._alpha = datum.simple_indices
        # _simple_keys[i][j] is the index of s_{i+1}(alpha_{j+1})
        self._simple_keys = [
            tuple(s[a] for a in self._alpha) for s in datum.simple_reflections
        ]
        self._elements: dict = {}
        self._by_id: list = []
        # _right[w.id * rank + i - 1] is the id of w s_i; _parents[w.id] the id
        # of s_i w for the first letter i of w's word; None until known.
        self._right: list = []
        self._parents: list = []
        pack = self._pack
        self.identity = self._new(pack(range(2 * n_pos)), pack(self._alpha), ())
        self.identity.pos = 0
        self._levels: list = [(self.identity,)]  # strata in lex-min word order
        self._reflections = None  # s_beta permutations and keys, on first use

    # -- element interning ---------------------------------------------------

    def _new(self, perm, key, word: tuple) -> WeylElement:
        n_pos = self._n_pos
        descents = 0
        for j, x in enumerate(key):
            if x >= n_pos:
                descents |= 1 << j
        el = WeylElement(perm, len(word), word, len(self._by_id), descents, self.datum)
        self._elements[key] = el
        self._by_id.append(el)
        self._right.extend([None] * self.rank)
        self._parents.append(None)
        return el

    def _element(self, perm, key=None) -> WeylElement:
        """Intern an element met outside enumeration, computing its word directly."""
        if key is None:
            key = self._pack(map(perm.__getitem__, self._alpha))
        el = self._elements.get(key)
        if el is None:
            el = self._new(perm, key, self._lexmin_word(perm))
        return el

    def left_descents(self, perm) -> int:
        """Left descent set of the element with root permutation perm, as a mask.

        Bit i-1 is set when l(s_i w) < l(w), i.e. when w^{-1}(alpha_i) is
        negative: alpha_i is the image of a root of index N or more.
        """
        neg = perm[self._n_pos:]
        d = 0
        for i, a in enumerate(self._alpha):
            if a in neg:
                d |= 1 << i
        return d

    def _lexmin_word(self, perm) -> tuple:
        """Lex-min reduced word, by greedy smallest left descent.

        s_i w permutes the roots by s_i after perm.
        """
        word = []
        simple, pack = self.datum.simple_reflections, self._pack
        while True:
            d = self.left_descents(perm)
            if not d:
                return tuple(word)
            i = (d & -d).bit_length() - 1
            word.append(i + 1)
            perm = pack(map(simple[i].__getitem__, perm))

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

    def times_simple(self, w: WeylElement, i: int) -> WeylElement:
        """w s_i, read from w's table row (filled in on first use)."""
        slot = w.id * self.rank + i - 1
        j = self._right[slot]
        if j is not None:
            return self._by_id[j]
        perm, pack = w.perm, self._pack
        key = pack(map(perm.__getitem__, self._simple_keys[i - 1]))
        v = self._elements.get(key)
        if v is None:
            s = self.datum.simple_reflections[i - 1]
            v = self._element(pack(map(perm.__getitem__, s)), key)
        self._right[slot] = v.id
        self._right[v.id * self.rank + i - 1] = w.id
        return v

    def left_parent(self, w: WeylElement) -> WeylElement:
        """s_i w for the first letter i of w's word; its word is w.word[1:]."""
        j = self._parents[w.id]
        if j is not None:
            return self._by_id[j]
        p = self.element_from_word(w.word[1:])
        self._parents[w.id] = p.id
        return p

    def inverse(self, w: WeylElement) -> WeylElement:
        return self.element_from_word(reversed(w.word))

    def act(self, w: WeylElement, lam: Weight) -> Weight:
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
        and the new stratum comes out already sorted.
        """
        k = len(self._levels)
        n = self.rank
        right, parents, by_id = self._right, self._parents, self._by_id
        elements, pack = self._elements, self._pack
        simple, keys = self.datum.simple_reflections, self._simple_keys
        found: list = []
        for w in self._levels[-1]:
            base = w.id * n
            perm = w.perm
            for i in range(n):
                if w.descents >> i & 1:
                    continue
                j = right[base + i]
                if j is None:
                    key = pack(map(perm.__getitem__, keys[i]))
                    v = elements.get(key)
                    if v is None:
                        v = self._new(
                            pack(map(perm.__getitem__, simple[i])), key, w.word + (i + 1,)
                        )
                    right[base + i] = v.id
                    right[v.id * n + i] = w.id
                else:
                    v = by_id[j]
                if v.pos is None:
                    v.pos = len(found)
                    found.append(v)
                    # s_j v = (s_j w) s_i for the first letter j of w's word
                    parents[v.id] = 0 if k == 1 else right[parents[w.id] * n + i]
        self._levels.append(tuple(found))

    def elements_of_length(self, k: int) -> tuple:
        """The elements of length k, in lex-min word order; w.pos indexes it."""
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
        """(perms, keys): s_beta as a root permutation, and s_beta(alpha_j), per b.

        Positive roots are numbered by height, so for beta not simple some
        s_j(beta) = gamma has a smaller index, and s_beta = s_j s_gamma s_j.
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
            keys = [tuple(p[a] for a in self._alpha) for p in perms]
            got = self._reflections = (perms, keys)
        return got

    def root_reflection(self, beta: Root) -> WeylElement:
        """The reflection in a positive root, as a group element."""
        if not self.datum.is_root(beta.omega):
            raise NotARootError(f"{beta} is not a root")
        if not beta.is_positive:
            raise NotARootError("root reflection expects a positive root")
        perms, keys = self._reflection_tables()
        b = self.datum.root_index[beta.omega]
        return self._element(self._pack(perms[b]), self._pack(keys[b]))

    def covers(self, w: WeylElement):
        """Iterator of pairs (w s_beta, index of beta) with l(w s_beta) = l(w) + 1.

        beta runs over ``datum.positive_roots`` in order.  The covers are
        cached on w, compactly, as a tuple of elements and a tuple of root
        indices.  w s_beta lies above w exactly when w(beta) is positive, and
        is looked up by its key, w applied to s_beta(alpha_j).  When the
        stratum of length l(w) + 1 is already enumerated, a candidate missing
        from the intern table is not a cover; otherwise its permutation,
        w composed with s_beta, is interned, so that high-rank groups are
        never enumerated just to find covers.
        """
        got = w._covers
        if got is None:
            k = w.length + 1
            enumerated = k < len(self._levels)
            n_pos, pack, elements = self._n_pos, self._pack, self._elements
            perms, keys = self._reflection_tables()
            perm = w.perm
            vs, bs = [], []
            for b in range(n_pos):
                if perm[b] >= n_pos:
                    continue  # w s_beta < w
                key = pack(map(perm.__getitem__, keys[b]))
                v = elements.get(key)
                if v is None:
                    if enumerated:
                        continue
                    v = self._element(pack(map(perm.__getitem__, perms[b])), key)
                if v.length == k:
                    vs.append(v)
                    bs.append(b)
            got = w._covers = (tuple(vs), tuple(bs))
        return zip(*got)
