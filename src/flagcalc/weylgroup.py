"""Weyl group elements, enumeration by length, and reflections.

An element is represented canonically by its integer action matrix on weight
coordinates (faithful, since the fundamental weights span).  Each element also
carries its length and its lexicographically minimal reduced word; words use
1-based simple-root indices, matching the usual s_1, ..., s_l labels.

Elements are interned per group and get a dense integer ``id`` in interning
order.  Each one carries its right descent set as a bit mask and, once asked
for, its upper Bruhat covers; the group keeps, per id, the table row of ids
of w s_1, ..., w s_l and the id of s_i w for the first letter i of the word.
Enumeration by length fills these tables, so ascents, descents and cover
lookups cost no matrix products.  Elements carry no inverse: every new matrix
is some known w times a reflection, w s_beta = w - (w beta) (x) beta^vee, and
an element met before enumeration reaches it reads its word off w(rho).
Products, inverses and words are walks along the right-multiplication table.
The tables hold ids rather than elements, so a group's elements form no
reference cycles and are freed as soon as the group is.
"""

from __future__ import annotations

from operator import mul

from .errors import InvalidWordError, NotARootError, OutOfRangeError
from .rootdata import Root, RootDatum, Weight

Matrix = tuple  # tuple of row tuples, integer entries


def _matvec(a: Matrix, v) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in a)


def _times_reflection(m: Matrix, mb: tuple, coroot: tuple) -> Matrix:
    """The matrix of w s_beta = w - (w beta) (x) beta^vee, from m = w and mb = w beta."""
    return tuple(
        tuple(x - y * c for x, c in zip(r, coroot)) if y else r
        for r, y in zip(m, mb)
    )


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class WeylElement:
    """One Weyl group element; equality and hashing use the action matrix."""

    __slots__ = (
        "matrix", "length", "word",
        "id", "descents", "_covers", "_hash",
    )

    def __init__(
        self,
        matrix: Matrix,
        length: int,
        word: tuple,
        id: int,
        descents: int,
    ):
        self.matrix = matrix
        self.length = length
        self.word = word
        self.id = id
        self.descents = descents  # bit i-1 set when l(w s_i) < l(w)
        self._covers = None
        self._hash = hash(matrix)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, WeylElement) and self.matrix == other.matrix
        )

    def __hash__(self):
        return self._hash

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

    Elements are interned: the cache maps action matrices to WeylElement
    instances, and a stratum, once filled, is never mutated again.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.rank = datum.rank
        self._root_sign = {
            r.omega: (1 if r.is_positive else -1) for r in datum.all_roots
        }
        # (beta, beta^vee on the fundamental weights) in simple- and in
        # positive-root order; alpha_i^vee is the i-th unit vector
        self._simple = [(r.omega, r.coroot_on_omega) for r in datum.simple_roots]
        self._positive = [(r.omega, r.coroot_on_omega) for r in datum.positive_roots]
        self._elements: dict = {}
        self._by_id: list = []
        # _right[w.id * rank + i - 1] is the id of w s_i; _parents[w.id] the id
        # of s_i w for the first letter i of w's word; None until known.
        self._right: list = []
        self._parents: list = []
        self.identity = self._new(_identity(self.rank), 0, (), 0)
        self._levels: list = [[self.identity]]  # strata in lex-min word order
        self._level_sets: list = [frozenset(self._levels[0])]
        self._reflection_cache: dict = {}

    # -- element interning ---------------------------------------------------

    def _new(self, matrix, length, word, descents) -> WeylElement:
        el = WeylElement(matrix, length, word, len(self._by_id), descents)
        self._elements[matrix] = el
        self._by_id.append(el)
        self._right.extend([None] * self.rank)
        self._parents.append(None)
        return el

    def _element(self, matrix: Matrix) -> WeylElement:
        """Intern an element met outside enumeration, computing its word directly."""
        el = self._elements.get(matrix)
        if el is None:
            length, word = self._length_and_word(matrix)
            sign = self._root_sign
            descents = 0
            for j, (alpha, _) in enumerate(self._simple):
                if sign[_matvec(matrix, alpha)] < 0:
                    descents |= 1 << j
            el = self._new(matrix, length, word, descents)
        return el

    def _length_and_word(self, matrix: Matrix) -> tuple:
        """Length and lex-min reduced word, by greedy smallest left descent.

        x = w(rho) is the vector of row sums; s_i is a left descent of w
        exactly when x_i = <w(rho), alpha_i^vee> < 0, and then
        (s_i w)(rho) = x - x_i alpha_i.
        """
        word = []
        x = [sum(r) for r in matrix]
        simple = self._simple
        while True:
            for i, xi in enumerate(x):
                if xi < 0:
                    word.append(i + 1)
                    x = [a - xi * b for a, b in zip(x, simple[i][0])]
                    break
            else:
                return len(word), tuple(word)

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
        alpha, coroot = self._simple[i - 1]
        m = w.matrix
        v = self._element(_times_reflection(m, _matvec(m, alpha), coroot))
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
        return _matvec(w.matrix, lam)

    def descends(self, w: WeylElement, i: int) -> bool:
        """True when l(w s_i) = l(w) - 1, i.e. when w(alpha_i) is negative."""
        return bool(w.descents >> (i - 1) & 1)

    # -- enumeration -------------------------------------------------------

    @property
    def longest_length(self) -> int:
        return self.datum.num_positive_roots

    def order(self) -> int:
        ct = self.datum.cartan_type
        n = ct.rank
        if ct.family == "B":
            fact = 1
            for k in range(2, n + 1):
                fact *= k
            return (2**n) * fact
        if ct.family == "D":
            fact = 1
            for k in range(2, n + 1):
                fact *= k
            return (2 ** (n - 1)) * fact
        return {"G2": 12, "F4": 1152}[ct.family]

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
        found: dict = {}
        for w in self._levels[-1]:
            base = w.id * n
            for i, (alpha, coroot) in enumerate(self._simple):
                if w.descents >> i & 1:
                    continue
                j = right[base + i]
                if j is None:
                    m = w.matrix
                    prod = _times_reflection(m, _matvec(m, alpha), coroot)
                    v = self._elements.get(prod)
                    if v is None:
                        v = self._new(prod, k, w.word + (i + 1,), 0)
                    right[base + i] = v.id
                    right[v.id * n + i] = w.id
                else:
                    v = by_id[j]
                if v not in found:
                    found[v] = None
                    # s_j v = (s_j w) s_i for the first letter j of w's word
                    parents[v.id] = 0 if k == 1 else right[parents[w.id] * n + i]
                v.descents |= 1 << i
        self._levels.append(list(found))
        self._level_sets.append(frozenset(found))

    def elements_of_length(self, k: int) -> frozenset:
        if not 0 <= k <= self.longest_length:
            raise OutOfRangeError(
                f"length {k} out of range 0..{self.longest_length}"
            )
        while len(self._levels) <= k:
            self._grow()
        return self._level_sets[k]

    def sorted_stratum(self, k: int) -> list:
        self.elements_of_length(k)
        return list(self._levels[k])

    def longest_element(self) -> WeylElement:
        top = self.elements_of_length(self.longest_length)
        (w0,) = top
        return w0

    # -- reflections and the Bruhat cover graph -----------------------------

    def root_reflection(self, beta: Root) -> WeylElement:
        """The reflection in a positive root, as a group element."""
        if not self.datum.is_root(beta.omega):
            raise NotARootError(f"{beta} is not a root")
        if not beta.is_positive:
            raise NotARootError("root reflection expects a positive root")
        el = self._reflection_cache.get(beta.omega)
        if el is None:
            m = _times_reflection(self.identity.matrix, beta.omega, beta.coroot_on_omega)
            el = self._element(m)
            self._reflection_cache[beta.omega] = el
        return el

    def covers(self, w: WeylElement):
        """Iterator of pairs (w s_beta, index of beta) with l(w s_beta) = l(w) + 1.

        beta runs over ``datum.positive_roots`` in order.  The covers are
        cached on w, compactly, as a tuple of elements and a tuple of root
        indices.  Each candidate comes from the rank-1 update
        w s_beta = w - (w beta) (x) beta^vee.  When the stratum of length
        l(w) + 1 is already enumerated, a candidate missing from the intern
        table is not a cover; otherwise it is interned, so that high-rank
        groups are never enumerated just to find covers.
        """
        got = w._covers
        if got is None:
            k = w.length + 1
            enumerated = k < len(self._levels)
            sign = self._root_sign
            m = w.matrix
            vs, bs = [], []
            for b, (beta, cvec) in enumerate(self._positive):
                wb = _matvec(m, beta)
                if sign[wb] < 0:
                    continue  # w s_beta < w
                prod = _times_reflection(m, wb, cvec)
                v = self._elements.get(prod)
                if v is None:
                    if enumerated:
                        continue
                    v = self._element(prod)
                if v.length == k:
                    vs.append(v)
                    bs.append(b)
            got = w._covers = (tuple(vs), tuple(bs))
        return zip(*got)

    # -- reduced words (used by word-independence checks) -------------------

    def reduced_words(self, w: WeylElement) -> list:
        """All reduced words of w; exponential in the length, keep it small."""
        memo: dict = {}

        def rec(u: WeylElement):
            if u.length == 0:
                return [()]
            got = memo.get(u)
            if got is None:
                got = []
                for i in range(1, self.rank + 1):
                    if self.descends(u, i):
                        got.extend(rw + (i,) for rw in rec(self.times_simple(u, i)))
                memo[u] = got
            return got

        return rec(w)
