import gc
import math
import random
from operator import mul

import pytest

from flagcalc.errors import InvalidWordError, NotARootError, OutOfRangeError
from flagcalc.rootdata import build_root_datum, cartan_type
from flagcalc.weylgroup import WeylElement, WeylGroup, length_counts, weyl_order

from conftest import left_descents, reduced_words, word


def test_simple_reflection_action(calc_g2):
    g = calc_g2.group
    d = calc_g2.datum
    s1 = g.simple_reflection(1)
    # s_i(lam) = lam - <lam, alpha_i^vee> alpha_i; on omega_1 this subtracts alpha_1
    assert g.act(s1, (1, 0)) == (-1, 1)
    assert g.act(s1, (0, 1)) == (0, 1)
    assert g.act(g.identity, (3, -2)) == (3, -2)


def test_g2_table_action(calc_g2):
    g, d = calc_g2.group, calc_g2.datum
    s1, s2 = g.simple_reflection(1), g.simple_reflection(2)
    t = [d.t_weight(i) for i in (1, 2, 3)]
    neg = lambda v: tuple(-x for x in v)
    assert g.act(s1, t[0]) == neg(t[1])
    assert g.act(s1, t[1]) == neg(t[0])
    assert g.act(s1, t[2]) == neg(t[2])
    assert g.act(s2, t[0]) == t[0]
    assert g.act(s2, t[1]) == t[2]
    assert g.act(s2, t[2]) == t[1]


def test_f4_table_action_spotchecks(calc_f4):
    g, d = calc_f4.group, calc_f4.datum
    s4 = g.simple_reflection(4)
    sub = lambda a, b: tuple(x - y for x, y in zip(a, b))
    assert g.act(s4, d.t_weight(1)) == sub(d.t_weight(1), d.extra_t)
    assert g.act(s4, d.extra_t) == tuple(-x for x in d.extra_t)


def test_braid_relations():
    g2 = WeylGroup(build_root_datum(cartan_type("G2")))
    assert g2.element_from_word([1, 2] * 6).length == 0
    assert g2.element_from_word([1, 2] * 3).length != 0
    f4 = WeylGroup(build_root_datum(cartan_type("F4")))
    assert f4.element_from_word([2, 3] * 4).length == 0
    assert f4.element_from_word([1, 2] * 3).length == 0
    assert f4.element_from_word([3, 4] * 3).length == 0
    assert f4.element_from_word([1, 3, 1, 3]).length == 0


def test_word_recomputed_from_matrix_not_concatenation(calc_g2):
    g = calc_g2.group
    w = word(calc_g2, "121")
    v = word(calc_g2, "121")
    # product has length 0, not 6
    assert g.compose(w, v).word == ()
    u = g.compose(word(calc_g2, "12"), word(calc_g2, "12"))
    assert u.length == 4
    assert u.word == (1, 2, 1, 2)


WHOLE_GROUPS = [("G2", None), ("B", 3), ("B", 4), ("D", 4), ("F4", None)]


def _fresh_group(family, rank):
    return WeylGroup(build_root_datum(cartan_type(family, rank)))


def _enumerate(g):
    return [w for k in range(g.longest_length + 1) for w in g.sorted_stratum(k)]


# Reference route: plain matrix products of simple reflections built from the
# Cartan matrix alone, independent of the group's rank-1 updates and tables.


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _simple_matrices(g):
    # column i-1 of s_i is e_{i-1} minus alpha_i, the (i-1)-th Cartan column
    n, M = g.rank, g.datum.cartan_matrix
    return {
        i: tuple(
            tuple(int(r == j) - (M[r][i - 1] if j == i - 1 else 0) for j in range(n))
            for r in range(n)
        )
        for i in range(1, n + 1)
    }


def _identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _word_matrix(g, word):
    m = _identity_matrix(g.rank)
    simple = _simple_matrices(g)
    for i in word:
        m = _matmul(m, simple[i])
    return m


@pytest.mark.parametrize("family,rank", WHOLE_GROUPS)
def test_compose_and_inverse(family, rank):
    g = _fresh_group(family, rank)
    n = g.rank
    rng = random.Random(10)
    # on a cold group first, before enumeration reaches the elements
    for _ in range(20):
        w = g.element_from_word([rng.randint(1, n) for _ in range(6)])
        v = g.element_from_word([rng.randint(1, n) for _ in range(6)])
        wv = g.compose(w, v)
        assert wv.matrix == _matmul(w.matrix, v.matrix)
        assert g.compose(wv, g.inverse(v)) == w
        assert g.compose(g.inverse(w), w) == g.identity
    elements = _enumerate(g)
    if g.order() <= 48:  # all pairs in G2 and B3
        pairs = [(w, v) for w in elements for v in elements]
    else:
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(400)]
    for w, v in pairs:
        assert g.compose(w, v).matrix == _matmul(w.matrix, v.matrix)
    ident = g.identity.matrix
    for w in elements:
        inv = g.inverse(w)
        assert _matmul(w.matrix, inv.matrix) == ident == _matmul(inv.matrix, w.matrix)
        assert g.compose(w, inv) is g.identity is g.compose(inv, w)
        assert inv.length == w.length


@pytest.mark.parametrize("family,rank", WHOLE_GROUPS)
def test_random_words_match_matrix_products(family, rank):
    # words that are mostly not reduced, evaluated on a cold group
    g = _fresh_group(family, rank)
    n, N = g.rank, g.longest_length
    rng = random.Random(11)
    for _ in range(60):
        word = [rng.randint(1, n) for _ in range(rng.randint(0, 2 * N))]
        w = g.element_from_word(word)
        assert w.matrix == _word_matrix(g, word)
        assert w.length <= len(word) and (len(word) - w.length) % 2 == 0
        assert _word_matrix(g, w.word) == w.matrix
        assert len(w.word) == w.length


@pytest.mark.parametrize("family,rank", [*WHOLE_GROUPS, ("B", 6)])
def test_words_met_before_enumeration_are_greedy(family, rank):
    # on a cold group, elements interned by times_simple and by covers get
    # their words from walks that stop at the first interned element; each
    # must still be the lex-min word
    g = _fresh_group(family, rank)
    rng = random.Random(12)
    for _ in range(60):
        word = [rng.randint(1, g.rank) for _ in range(rng.randint(0, g.longest_length))]
        w = g.element_from_word(word)
        for v in (w, *(v for v, _ in g.covers(w))):
            assert v.word == _greedy_word(g, v.matrix), v
    assert len(g._levels) == 1


def test_lexmin_words():
    # the stored word is reduced, evaluates back to the element, and is
    # lexicographically minimal among all reduced words
    for family, rank in WHOLE_GROUPS:
        g = _fresh_group(family, rank)
        for k in (2, 3, 4):
            for w in g.elements_of_length(k):
                assert len(w.word) == w.length
                assert g.element_from_word(w.word) == w
                assert min(reduced_words(g, w)) == w.word


def _greedy_word(g, matrix):
    """Lex-min word by greedy smallest left descent, read off x = w(rho).

    x is the vector of row sums; s_i is a left descent of w exactly when
    x_i = <w(rho), alpha_i^vee> < 0, and then (s_i w)(rho) = x - x_i alpha_i.
    """
    simple = [r.omega for r in g.datum.simple_roots]
    word, x = [], [sum(r) for r in matrix]
    while True:
        for i, xi in enumerate(x):
            if xi < 0:
                word.append(i + 1)
                x = [a - xi * b for a, b in zip(x, simple[i])]
                break
        else:
            return tuple(word)


@pytest.mark.parametrize("family,rank", WHOLE_GROUPS)
def test_enumerated_words_match_greedy_words(family, rank):
    g = _fresh_group(family, rank)
    elements = _enumerate(g)
    assert sorted(w.id for w in elements) == list(range(g.order()))
    assert elements == sorted(elements, key=lambda w: w.sort_key())
    for w in elements:
        assert w.word == _greedy_word(g, w.matrix)
        assert w.length == len(w.word)
        assert g._lexmin_word(w.perm) == w.word


@pytest.mark.parametrize("family,rank", WHOLE_GROUPS)
def test_lazy_words_match_the_enumerated_words(family, rank):
    # every element interned by right_id steps or cover scans, none by
    # enumeration; each word is computed from the permutation when read
    cold, warm = _fresh_group(family, rank), _fresh_group(family, rank)
    todo, seen = [cold.identity], {cold.identity.id}
    while todo:
        w = todo.pop()
        if w.length % 2:
            cold.cover_ids(w)
        for i in range(1, cold.rank + 1):
            j = cold.right_id(w.id, i)
            if j not in seen:
                seen.add(j)
                todo.append(cold._by_id[j])
    assert len(cold._levels) == 1 and len(cold._by_id) == cold.order()
    assert [w for w in cold._by_id if w._word is not None] == [cold.identity]
    enumerated = {w.perm: w for w in _enumerate(warm)}
    for w in cold._by_id:
        want = enumerated[w.perm]
        assert (w.word, w.length, w.descents) == (want.word, want.length, want.descents)
        assert len(w.word) == w.length
    words = [w.word for w in cold._by_id]
    assert [w.word for w in _enumerate(cold)] == [w.word for w in _enumerate(warm)]
    assert [w.word for w in cold._by_id] == words


def test_elements_hold_no_reference_to_their_group():
    g = _fresh_group("F4", None)
    w = g.element_from_word([1, 2, 3, 4])
    g.cover_ids(w)
    reachable, todo = set(), [w]
    while todo:
        o = todo.pop()
        if id(o) not in reachable:
            reachable.add(id(o))
            todo.extend(gc.get_referents(o))
    assert id(g) not in reachable
    assert not {id(v) for v in g._by_id} - {id(w)} & reachable


def _ascent_by_candidates(g, w):
    """The walk up from w on the right by the smallest s_i after which the
    left descent set is still that of w, each candidate interned and its
    descents counted, as a reference."""
    d = left_descents(g, w.perm)
    letters = []
    while True:
        for i in range(1, g.rank + 1):
            if not g.descends(w, i):
                up = g.times_simple(w, i)
                if left_descents(g, up.perm) == d:
                    break
        else:
            return letters, w
        letters.append(i)
        w = up


@pytest.mark.parametrize("family,rank", WHOLE_GROUPS)
def test_parabolic_ascent_reads_permutations_only(family, rank):
    warm, cold = _fresh_group(family, rank), _fresh_group(family, rank)
    w0 = warm.longest_element()
    for w in _enumerate(warm):
        letters, top = _ascent_by_candidates(warm, w)
        before = len(cold._by_id)
        got, x = cold.parabolic_ascent(cold.element_from_word(w.word))
        assert len(cold._by_id) <= before + w.length + 1
        assert got == letters and x.word == top.word and x.length == top.length
        # x = w_{0,K} w0 with K the simple indices outside the left descents
        # D of w: x keeps D, and w0 x^-1 = w_{0,K} has right descents K
        d = left_descents(warm, w.perm)
        assert left_descents(warm, top.perm) == d
        assert warm.compose(w0, warm.inverse(top)).descents == (1 << warm.rank) - 1 & ~d


@pytest.mark.parametrize("family,rank", [("B", 4), ("D", 5), ("F4", None)])
def test_inverse_interns_at_most_one_element(family, rank):
    g, warm = _fresh_group(family, rank), _fresh_group(family, rank)
    enumerated = {w.perm: w for w in _enumerate(warm)}
    rng = random.Random(5)
    for _ in range(40):
        w = g.element_from_word([rng.randint(1, g.rank) for _ in range(rng.randint(0, 30))])
        before = len(g._by_id)
        inv = g.inverse(w)
        assert len(g._by_id) <= before + 1
        assert g.compose(w, inv) is g.identity and inv.length == w.length
        assert enumerated[inv.perm] is warm.element_from_word(reversed(w.word))
        assert inv.word == enumerated[inv.perm].word
        before = len(g._by_id)
        assert g.inverse(inv) is w and len(g._by_id) == before


@pytest.mark.parametrize("family,rank", WHOLE_GROUPS)
def test_right_table_and_parent_match_matrices(family, rank):
    g = _fresh_group(family, rank)
    simple = _simple_matrices(g)
    for w in _enumerate(g):
        for i in range(1, g.rank + 1):
            v = g.times_simple(w, i)
            assert v.matrix == _matmul(w.matrix, simple[i])
            assert v is g.compose(w, g.simple_reflection(i))
        if w.length:
            i = w.word[-1]
            parent = g._by_id[g.right_id(w.id, i)]
            assert _matmul(parent.matrix, simple[i]) == w.matrix
            assert parent.word == w.word[:-1]


@pytest.mark.parametrize("family,rank", [("G2", None), ("B", 3), ("F4", None)])
def test_right_id_is_times_simple(family, rank):
    # on an enumerated group every slot was filled by enumeration; a cold
    # group finds the same steps one right_id at a time
    g, cold = _fresh_group(family, rank), _fresh_group(family, rank)
    elements = _enumerate(g)
    for k in range(len(g._by_id)):
        w = g._by_id[k]
        for i in range(1, g.rank + 1):
            j = g.right_id(k, i)
            assert j == g.times_simple(w, i).id
            assert g._by_id[j].word == cold.times_simple(cold.element_from_word(w.word), i).word
    assert len(g._by_id) == len(elements) == g.order()


@pytest.mark.parametrize("family,rank", [("G2", None), ("B", 3), ("F4", None)])
def test_right_id_on_a_cold_group(family, rank):
    # the first step w s_i fills the slot of w s_i in w's row and the slot of
    # w in the row of w s_i, and interns w s_i and nothing else
    g = _fresh_group(family, rank)
    n = g.rank
    w = g.element_from_word(range(1, n + 1))
    before = len(g._by_id)
    i = 1
    assert g._right[w.id * n + i - 1] is None
    j = g.right_id(w.id, i)
    assert len(g._by_id) == before + 1 and j == before
    assert g._right[w.id * n + i - 1] == j
    assert g._right[j * n + i - 1] == w.id
    assert g._right[j * n:(j + 1) * n].count(None) == n - 1
    assert g.right_id(j, i) == w.id
    assert g._by_id[j] is g.element_from_word(w.word + (i,))
    assert g._by_id[j].length == n + 1 and len(g._by_id) == before + 1


@pytest.mark.parametrize("family,rank", WHOLE_GROUPS)
def test_covers_match_root_reflections(family, rank):
    g = _fresh_group(family, rank)
    roots = g.datum.positive_roots
    for w in _enumerate(g):
        want = []
        for b, beta in enumerate(roots):
            v = g.compose(w, g.root_reflection(beta))
            if v.length == w.length + 1:
                want.append((v, b))
        assert list(g.covers(w)) == want


@pytest.mark.parametrize("family,rank", [("B", 4), ("F4", None)])
def test_elements_met_before_enumeration(family, rank):
    # elements interned from words, and covers found before their stratum is
    # enumerated, agree with what enumeration of a second group produces
    cold, warm = _fresh_group(family, rank), _fresh_group(family, rank)
    rng = random.Random(12)
    n, N = cold.rank, cold.longest_length
    met = [cold.element_from_word([rng.randint(1, n) for _ in range(rng.randint(1, N))])
           for _ in range(30)]
    early = {w: list(cold.covers(w)) for w in met}
    parents = {w: cold._by_id[cold.right_id(w.id, w.word[-1])] for w in met if w.length}
    ranked = {w.word: w for w in _enumerate(warm)}
    for w in met:
        assert ranked[w.word].matrix == w.matrix
        assert [(v.word, b) for v, b in early[w]] == [
            (v.word, b) for v, b in warm.covers(ranked[w.word])
        ]
    stratum = {w.word: w for w in _enumerate(cold)}
    assert stratum.keys() == ranked.keys()
    for w in met:
        assert stratum[w.word] is w
        if w.length:
            assert parents[w].word == w.word[:-1]
    for w in stratum.values():
        for i in range(1, n + 1):
            assert cold.times_simple(w, i).word == warm.times_simple(ranked[w.word], i).word
            assert cold.descends(w, i) == warm.descends(ranked[w.word], i)


@pytest.mark.parametrize(
    "family,rank,counts",
    [
        ("G2", 2, [1, 2, 2, 2, 2, 2, 1]),
        ("F4", 4, [1, 4, 9, 16, 25]),
    ],
)
def test_length_counts(family, rank, counts):
    g = WeylGroup(build_root_datum(cartan_type(family, rank)))
    got = [len(g.elements_of_length(k)) for k in range(len(counts))]
    assert got == counts == length_counts(g.datum.positive_roots)[: len(counts)]


@pytest.mark.parametrize(
    "family,rank,order",
    [("B", 2, 8), ("B", 3, 48), ("B", 4, 384), ("D", 4, 192), ("D", 5, 1920),
     ("G2", 2, 12), ("F4", 4, 1152), ("B", 5, 3840)],
)
def test_total_order_by_enumeration(family, rank, order):
    # the strata sizes are the coefficients of the Poincare polynomial
    g = WeylGroup(build_root_datum(cartan_type(family, rank)))
    sizes = [len(g.elements_of_length(k)) for k in range(g.longest_length + 1)]
    assert sizes == length_counts(g.datum.positive_roots)
    assert sum(sizes) == order == g.order()


@pytest.mark.parametrize("family,total", [("B", 3_507_601), ("D", 2_719_374)])
def test_length_counts_of_rank_8_up_to_length_28(family, total):
    # out of reach of enumeration in a test; the figures of the rank-8 probes
    counts = length_counts(build_root_datum(cartan_type(family, 8)).positive_roots)
    assert sum(counts[:29]) == total


def _closed_order(family, rank):
    # |W(B_n)| = 2^n n!, |W(D_n)| = 2^(n-1) n!
    if family in ("G2", "F4"):
        return {"G2": 12, "F4": 1152}[family]
    return 2 ** (rank - (family == "D")) * math.factorial(rank)


@pytest.mark.parametrize(
    "family,rank",
    [("G2", None), ("F4", None)]
    + [("B", n) for n in range(2, 31)]
    + [("D", n) for n in range(4, 31)],
)
def test_order_from_root_heights_matches_closed_formulas(family, rank):
    g = _fresh_group(family, rank)
    assert g.order() == _closed_order(family, rank)
    # the Poincare polynomial: |W| in all, palindromic, rank-many reflections s_i
    counts = length_counts(g.datum.positive_roots)
    assert sum(counts) == g.order() and counts == counts[::-1] and counts[1] == g.rank


@pytest.mark.parametrize("family,rank", [("G2", None), ("B", 4), ("D", 5), ("F4", None)])
def test_parabolic_layers_are_the_minimal_coset_representatives(family, rank):
    # for each j, the layers walked from the identity on a cold group are the
    # w with right descents in {j}, in stratum order, |W| / |W_J| of them;
    # the walk enumerates no stratum
    for j in range(1, build_root_datum(cartan_type(family, rank)).rank + 1):
        cold, warm = _fresh_group(family, rank), _fresh_group(family, rank)
        rest = ~(1 << (j - 1))
        layers = [(cold.identity,)]
        while layers[-1]:
            layers.append(cold.parabolic_layer(j, layers[-1]))
        assert len(cold._levels) == 1
        total = 0
        for k in range(warm.longest_length + 1):
            want = [w.word for w in warm.elements_of_length(k) if not w.descents & rest]
            got = layers[k] if k < len(layers) else ()
            assert [w.word for w in got] == want, (j, k)
            assert all(w.length == k for w in got)
            total += len(got)
        levi = [r for r in cold.datum.positive_roots if not r.simple_coords[j - 1]]
        assert total == cold.order() // weyl_order(levi)


@pytest.mark.parametrize("family,rank", [("G2", None), ("B", 3), ("D", 4), ("F4", None)])
def test_the_stored_stratum_is_one_sorted_tuple(family, rank):
    g = _fresh_group(family, rank)
    for k in range(g.longest_length + 1):
        s = g.elements_of_length(k)
        assert type(s) is tuple
        assert s is g.sorted_stratum(k)
        assert len(set(s)) == len(s) and all(w.length == k for w in s)
        assert [w.word for w in s] == sorted(w.word for w in s)


def test_strata_hold_elements_met_before_enumeration():
    # covers and element_from_word intern elements of strata not enumerated
    # yet, and every other one has its word read; enumeration later puts
    # each in the same place, with the same word, as in a warm group
    cold, warm = _fresh_group("B", 5), _fresh_group("B", 5)
    early = []
    for w in _enumerate(warm)[::7]:
        u = cold.element_from_word(w.word)
        early.append(u)
        early.extend(v for v, _ in cold.covers(u))
    assert len(cold._levels) == 1
    for u in early[::2]:
        assert u.word == warm.element_from_word(u.word).word
    assert [w.word for w in _enumerate(cold)] == [w.word for w in _enumerate(warm)]
    for u in early:
        p = cold.elements_of_length(u.length).index(u)
        assert warm.elements_of_length(u.length)[p] is warm.element_from_word(u.word)


@pytest.mark.parametrize("family,rank", [("B", 3), ("D", 4), ("G2", 2), ("F4", 4)])
def test_palindromic_length_distribution(family, rank):
    g = WeylGroup(build_root_datum(cartan_type(family, rank)))
    N = g.longest_length
    for k in range(N + 1):
        assert len(g.elements_of_length(k)) == len(g.elements_of_length(N - k))


def test_elements_of_length_out_of_range(calc_g2):
    with pytest.raises(OutOfRangeError):
        calc_g2.group.elements_of_length(7)
    with pytest.raises(OutOfRangeError):
        calc_g2.group.elements_of_length(-1)


def test_descent_dichotomy():
    # for every w and simple i exactly one of l(w s_i) = l(w) +- 1 holds, and
    # the descent table agrees with the sign of w(alpha_i)
    for family, rank in WHOLE_GROUPS:
        g = _fresh_group(family, rank)
        sign = {r.omega: r.is_positive for r in g.datum.all_roots}
        for w in _enumerate(g):
            for i in range(1, g.rank + 1):
                ws = g.compose(w, g.simple_reflection(i))
                alpha = g.datum.simple_roots[i - 1].omega
                assert g.descends(w, i) == (not sign[g.act(w, alpha)])
                if g.descends(w, i):
                    assert ws.length == w.length - 1
                else:
                    assert ws.length == w.length + 1


class TestLongestElement:
    def test_b2_is_minus_one(self, calc_b2):
        g = calc_b2.group
        w0 = g.longest_element()
        assert w0.matrix == ((-1, 0), (0, -1))

    def test_g2_length(self, calc_g2):
        assert calc_g2.group.longest_element().length == 6

    def test_f4_printed_word(self, calc_f4):
        g = calc_f4.group
        printed = g.element_from_word(
            [1, 2, 1, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4]
        )
        assert printed.length == 24
        assert printed == g.longest_element()


class TestRootReflection:
    def test_simple_root_gives_simple_reflection(self, calc_b3):
        g, d = calc_b3.group, calc_b3.datum
        for i in (1, 2, 3):
            assert g.root_reflection(d.simple_roots[i - 1]) == g.simple_reflection(i)

    def test_involution(self, calc_f4):
        g, d = calc_f4.group, calc_f4.datum
        for beta in d.positive_roots:
            s = g.root_reflection(beta)
            assert g.compose(s, s).length == 0

    def test_b3_short_root_length_five(self, calc_b3):
        # oracle: count the positive roots sent negative by the reflection
        g, d = calc_b3.group, calc_b3.datum
        beta = d.indexed_roots[d.root_index[(1, 0, 0)]]  # t_1 = alpha_1 + alpha_2 + alpha_3
        assert beta.simple_coords == (1, 1, 1)
        s = g.root_reflection(beta)
        flipped = sum(
            1
            for r in d.positive_roots
            if not d.indexed_roots[d.root_index[g.act(s, r.omega)]].is_positive
        )
        assert flipped == 5
        assert s.length == 5

    def test_rejects_non_roots(self, calc_b3):
        g, d = calc_b3.group, calc_b3.datum
        neg = d.indexed_roots[d.root_index[tuple(-x for x in d.simple_roots[0].omega)]]
        with pytest.raises(NotARootError):
            g.root_reflection(neg)


def test_invalid_word_letters(calc_g2):
    with pytest.raises(InvalidWordError):
        calc_g2.group.element_from_word([1, 5])


def test_reduced_words_enumeration(calc_b3):
    g = calc_b3.group
    w = g.element_from_word([1, 2, 1])
    words = reduced_words(g, w)
    assert (1, 2, 1) in words and (2, 1, 2) in words
    assert all(g.element_from_word(rw) == w for rw in words)
    assert len(set(words)) == len(words)


# Root permutations against the matrix route, over whole groups.

PERM_GROUPS = WHOLE_GROUPS + [("D", 5)]


def _times_reflection(m, beta, coroot):
    """The matrix of w s_beta = w - (w beta) (x) beta^vee, from the matrix m of w."""
    mb = [sum(map(mul, row, beta)) for row in m]
    return tuple(tuple(x - y * c for x, c in zip(r, coroot)) for r, y in zip(m, mb))


@pytest.mark.parametrize("family,rank", PERM_GROUPS)
def test_matrix_is_the_product_along_the_word(family, rank):
    # a prefix of a lex-min word is lex-min, so each matrix extends its prefix's
    g = _fresh_group(family, rank)
    simple = _simple_matrices(g)
    want = {(): _identity_matrix(g.rank)}
    for w in _enumerate(g):
        if w.word:
            want[w.word] = _matmul(want[w.word[:-1]], simple[w.word[-1]])
        assert w.matrix == want[w.word]


@pytest.mark.parametrize("family,rank", PERM_GROUPS)
def test_covers_match_rank_one_matrix_updates(family, rank):
    g = _fresh_group(family, rank)
    elements = _enumerate(g)
    by_matrix = {w.matrix: w for w in elements}
    assert len(by_matrix) == len(elements)
    roots = g.datum.positive_roots
    for w in elements:
        want = []
        for b, beta in enumerate(roots):
            v = by_matrix[_times_reflection(w.matrix, beta.omega, beta.coroot_on_omega)]
            if v.length == w.length + 1:
                want.append((v, b))
        assert list(g.covers(w)) == want


@pytest.mark.parametrize("family,rank", PERM_GROUPS)
def test_covers_before_enumeration_match_enumerated_covers(family, rank):
    # every cover of the cold group is interned by the path for strata that
    # are not enumerated yet: its permutation is w composed with s_beta
    cold, warm = _fresh_group(family, rank), _fresh_group(family, rank)
    for w in _enumerate(warm):
        u = cold.element_from_word(w.word)
        assert (u.perm, u.word, u.descents) == (w.perm, w.word, w.descents)
        assert [(v.perm, v.word, b) for v, b in cold.covers(u)] == [
            (v.perm, v.word, b) for v, b in warm.covers(w)
        ]
    assert len(cold._levels) == 1
    assert len(cold._by_id) == warm.order()


@pytest.mark.parametrize("family,rank", [("B", 4), ("F4", None), ("B", 12)])
def test_covers_before_enumeration_intern_only_covers(family, rank):
    # a candidate w s_beta missing from the intern table may lie several
    # steps above w; only the true covers are interned and given a word
    g = _fresh_group(family, rank)
    rng = random.Random(13)
    for _ in range(5):
        w = g.element_from_word([rng.randint(1, g.rank) for _ in range(rng.randint(1, 4))])
        before = len(g._by_id)
        got = {v.id for v, _ in g.covers(w)}
        assert {v.id for v in g._by_id[before:]} <= got
    assert len(g._levels) == 1


def _covers_by_length(g, w) -> list:
    """The covers of w by the rule the inversion count replaced: the length
    of w s_beta counted from its permutation, as (permutation, beta) pairs."""
    n_pos, (perms, _, _) = g.longest_length, g._reflection_tables()
    t = w.perm + g._pad
    found = []
    for b in range(n_pos):
        p = perms[b](t)
        if sum(x >= n_pos for x in p[:n_pos]) == w.length + 1:
            found.append((p, b))
    return found


@pytest.mark.parametrize("family,rank,top", [
    ("G2", None, None), ("B", 4, None), ("D", 5, None), ("F4", None, None),
    ("B", 12, 3), ("D", 12, 3),
])
def test_lazy_covers_match_the_length_count(family, rank, top):
    # on a cold group, lazy cover scans of every element up to length top
    # (the whole group for None), walked length by length from the identity,
    # against the covers whose length is counted from the permutation; B12
    # and D12 pack tuples, the others bytes
    g = _fresh_group(family, rank)
    assert (g._pack is tuple) == (top is not None)
    layer, seen = [g.identity], 1
    while layer and (top is None or layer[0].length <= top):
        above = {}
        for w in layer:
            got = list(g.covers(w))
            assert [(v.perm, b) for v, b in got] == _covers_by_length(g, w), w.word
            above.update((v, None) for v, _ in got)
        layer = list(above)
        seen += len(layer)
    assert len(g._levels) == 1  # no stratum was enumerated
    if top is None:
        assert seen == g.order()


def test_b12_low_strata_use_tuple_permutations():
    # 2N = 288 roots do not fit in bytes
    g = _fresh_group("B", 12)
    assert 2 * g.longest_length > 256
    # Poincare series of B_n: the product of 1 + q + ... + q^(2i-1), i = 1..n
    counts = [1, 0, 0, 0]
    for i in range(1, 13):
        counts = [sum(counts[k - e] for e in range(min(k, 2 * i - 1) + 1)) for k in range(4)]
    strata = [g.sorted_stratum(k) for k in range(4)]
    assert [len(s) for s in strata] == counts == [1, 12, 77, 352]
    by_matrix = {}
    for stratum in strata:
        for w in stratum:
            assert type(w.perm) is tuple
            assert w.matrix == _word_matrix(g, w.word)
            assert w.word == _greedy_word(g, w.matrix)
            by_matrix[w.matrix] = w
    roots = g.datum.positive_roots
    for k in range(3):
        for w in strata[k]:
            want = []
            for b, beta in enumerate(roots):
                v = by_matrix.get(_times_reflection(w.matrix, beta.omega, beta.coroot_on_omega))
                if v is not None and v.length == k + 1:
                    want.append((v, b))
            assert list(g.covers(w)) == want


def test_equality_is_identity(calc_b4, calc_d4):
    b4, d4 = calc_b4.group, calc_d4.group
    for w in b4.elements_of_length(4):
        for rw in reduced_words(b4, w):
            assert b4.element_from_word(rw) is w
    assert b4.element_from_word([3, 4, 3, 4]) is b4.element_from_word([4, 3, 4, 3])
    assert b4.identity != d4.identity
    assert b4.simple_reflection(1) != d4.simple_reflection(1)
    assert not set(b4.elements_of_length(2)) & set(d4.elements_of_length(2))
    # a second group of the same type interns its own elements
    other = _fresh_group("B", 4)
    assert other.identity != b4.identity
    assert other.element_from_word([1, 2]).perm == b4.element_from_word([1, 2]).perm


def test_group_paths_use_no_matrices(monkeypatch):
    # enumeration, products, reflections and covers are index lookups only
    def no_matrix(self):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(WeylElement, "matrix", property(no_matrix))
    cold, warm = _fresh_group("F4", None), _fresh_group("F4", None)
    for beta in cold.datum.positive_roots:
        cold.covers(cold.root_reflection(beta))
    for w in _enumerate(warm):
        warm.covers(w)
        cold.covers(cold.inverse(w))
        for i in range(1, warm.rank + 1):
            warm.right_id(w.id, i)
    assert len(cold._by_id) == warm.order()
