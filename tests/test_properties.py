"""Property tests, run when hypothesis is installed.

The divided difference is checked against a tuple-keyed reference written
here, independent of the packed kernel: Delta_i(m * w_i^k), with m free of
w_i, is m * sum_{j<k} w_i^j (w_i - alpha_i)^(k-1-j).  Stratum cokernels are
checked against the dense Smith normal form of ``test_chowring``, and the
CLI against its exit-code contract and on re-emitting its JSON output.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from flagcalc.chowring import CokernelStratum  # noqa: E402
from flagcalc.cli import _json_dumps, main  # noqa: E402
from flagcalc.exprparse import parse_polynomial  # noqa: E402
from flagcalc.polyring import Polynomial  # noqa: E402
from flagcalc.rootdata import cartan_type  # noqa: E402
from flagcalc.schubert import calculus_for  # noqa: E402
from test_chowring import GeneralPhaseOnly, dense_of, smith_normal_form  # noqa: E402

TYPES = {"G2": ("G2", None), "B3": ("B", 3), "D4": ("D", 4), "F4": ("F4", None)}
COEFFS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
FAST = settings(max_examples=60, deadline=None)


def calc_of(name):
    return calculus_for(cartan_type(*TYPES[name]))


@st.composite
def term_lists(draw, nvars, max_degree, homogeneous):
    """A list of (exponent tuple, coefficient) pairs; exponents may repeat."""
    degree = draw(st.integers(0, max_degree))
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        d = degree if homogeneous else draw(st.integers(0, max_degree))
        expo = [0] * nvars
        for j in draw(st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d)):
            expo[j] += 1
        terms.append((tuple(expo), draw(COEFFS)))
    return terms


def summed(terms):
    """Tuple-keyed sum of the terms, zero coefficients dropped."""
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def build(nvars, terms):
    p = Polynomial.zero(nvars)
    for e, c in terms:
        p = p + Polynomial.monomial(nvars, e, c)
    return p


def tuple_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def reference_delta(calc, i, f):
    n = calc.rank
    alpha = calc.datum.simple_roots[i - 1].omega
    unit = [tuple(int(r == j) for r in range(n)) for j in range(n)]
    image = summed((unit[r], int(r == i - 1) - alpha[r]) for r in range(n))
    out = {}
    for expo, c in f.terms.items():
        k = expo[i - 1]
        left = {expo[: i - 1] + (0,) + expo[i:]: c}  # c * m * w_i^j for j = 0, 1, ...
        right = [{(0,) * n: 1}]  # (w_i - alpha_i)^p for p = 0, 1, ...
        for _ in range(k - 1):
            right.append(tuple_mul(right[-1], image))
        for j in range(k):
            for e, v in tuple_mul(left, right[k - 1 - j]).items():
                out[e] = out.get(e, 0) + v
            left = tuple_mul(left, {unit[i - 1]: 1})
    return {
        e: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
        for e, c in out.items()
        if c
    }


@FAST
@given(st.data())
def test_divided_difference_matches_tuple_reference(data):
    name = data.draw(st.sampled_from(sorted(TYPES)))
    calc = calc_of(name)
    f = build(calc.rank, data.draw(term_lists(calc.rank, 6, homogeneous=True)))
    i = data.draw(st.integers(1, calc.rank))
    got = calc.divided_difference(i, f)
    want = reference_delta(calc, i, f)
    assert dict(got.terms) == want
    assert all(type(c) is int for c in got.terms.values() if Fraction(c).denominator == 1)


@FAST
@given(term_lists(4, 6, homogeneous=False))
def test_parse_of_format_is_identity(terms):
    f = build(4, terms)
    assert parse_polynomial(f.format(), calc_of("F4").datum) == f


@FAST
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), term_lists(n, 8, False))))
def test_terms_view_rebuilds_the_polynomial(case):
    nvars, terms = case
    f = build(nvars, terms)
    want = summed(terms)
    assert len(f.terms) == len(want)
    assert dict(f.terms) == want
    assert Polynomial(nvars, f.terms) == f


# ---------------------------------------------------------------------------
# Cokernels of sparse integer matrices, against the dense Smith-form oracle
# ---------------------------------------------------------------------------


@st.composite
def sparse_matrices(draw):
    """(rows, sparse columns, two vectors): at most 8 x 10, entries in [-6, 6]."""
    rows = draw(st.integers(1, 8))
    entries = st.dictionaries(st.integers(0, rows - 1), st.integers(-6, 6))
    columns = draw(st.lists(entries, min_size=1, max_size=10))
    vector = st.lists(st.integers(-20, 20), min_size=rows, max_size=rows)
    return rows, columns, draw(vector), draw(vector)


def column_vector(rows, column):
    return [column.get(r, 0) for r in range(rows)]


@FAST
@given(sparse_matrices())
def test_cokernel_matches_dense_oracle(case):
    rows, columns, _, _ = case
    coker = CokernelStratum(rows, columns)
    factors = coker.invariant_factors
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    want = smith_normal_form(dense_of(rows, columns)).invariant_factors
    assert factors == want
    assert coker.torsion == [d for d in want if d > 1]
    assert coker.free_rank == rows - len(want)
    assert math.prod(coker.moduli) == math.prod(coker.torsion)


@FAST
@given(sparse_matrices())
def test_cokernel_class_map(case):
    rows, columns, a, b = case
    coker = CokernelStratum(rows, columns)
    for column in columns:
        assert coker.is_zero_class(column_vector(rows, column))
    (ta, fa), (tb, fb) = coker.classify(a), coker.classify(b)
    tab, fab = coker.classify([x + y for x, y in zip(a, b)])
    assert all(0 <= t < d for t, d in zip(ta, coker.moduli))
    assert tab == tuple((x + y) % d for x, y, d in zip(ta, tb, coker.moduli))
    assert fab == tuple(x + y for x, y in zip(fa, fb))
    order = coker.class_order(a)
    if order:
        assert coker.is_zero_class([order * x for x in a])
        assert not any(coker.is_zero_class([k * x for x in a]) for k in range(1, order))
    else:
        assert any(fa)


def dense_class_order(res, vec):
    """Order of the class of vec from the dense Smith form U M V = D: the
    lcm over the diagonal of d / gcd(d, (U vec)_i), 0 for a nonzero
    coordinate on a zero or missing diagonal entry."""
    y = [sum(u * x for u, x in zip(row, vec)) for row in res.U]
    order = 1
    for i, yi in enumerate(y):
        d = abs(res.diagonal[i]) if i < len(res.diagonal) else 0
        if not d:
            if yi:
                return 0
            continue
        k = d // math.gcd(d, yi)
        order = order * k // math.gcd(order, k)
    return order


@FAST
@given(sparse_matrices(), st.sampled_from((2, 3, 4, 6)))
def test_scaled_cokernel(case, g):
    # every entry a multiple of g: the stratum divides g out, so its unit
    # pivots are Z/g summands; the dense Smith form of the scaled matrix, the
    # sparse general phase alone and the cokernel of M/g are the references
    rows, columns, a, b = case
    scaled = [{r: g * v for r, v in col.items()} for col in columns]
    coker = CokernelStratum(rows, scaled)
    ref, quotient = GeneralPhaseOnly(rows, scaled), GeneralPhaseOnly(rows, columns)
    res = smith_normal_form(dense_of(rows, scaled))
    assert coker.invariant_factors == ref.invariant_factors == res.invariant_factors
    assert coker.invariant_factors == [g * d for d in quotient.invariant_factors]
    assert coker.torsion == ref.torsion == [d for d in res.invariant_factors if d > 1]
    assert coker.free_rank == rows - len(res.invariant_factors)
    assert math.prod(coker.moduli) == math.prod(coker.torsion)
    for vec in (a, b, [g * x for x in a], [g * x + y for x, y in zip(a, b)]):
        order = dense_class_order(res, vec)
        assert coker.class_order(vec) == ref.class_order(vec) == order
        assert coker.is_zero_class(vec) == ref.is_zero_class(vec) == (order == 1)
        # v is zero iff g divides it and v/g is zero for M/g; k0 = g /
        # gcd(g, content(v)) is the order of v modulo g
        divisible = all(x % g == 0 for x in vec)
        reduced = [x // g for x in vec]
        assert coker.is_zero_class(vec) == (divisible and quotient.is_zero_class(reduced))
        k0 = g // math.gcd(g, *vec)
        assert order == k0 * quotient.class_order([k0 * x // g for x in vec])
    for column in scaled:
        assert coker.is_zero_class(column_vector(rows, column))
    (ta, fa), (tb, fb) = coker.classify(a), coker.classify(b)
    tab, fab = coker.classify([x + y for x, y in zip(a, b)])
    assert len(ta) == len(coker.moduli)
    assert all(0 <= t < d for t, d in zip(ta, coker.moduli))
    assert tab == tuple((x + y) % d for x, y, d in zip(ta, tb, coker.moduli))
    assert fab == tuple(x + y for x, y in zip(fa, fb))


# ---------------------------------------------------------------------------
# The CLI contract: exit 0, 1 or 2 on any argument values, never a traceback
# ---------------------------------------------------------------------------

CLI_TYPES = (("--type", "G2"), ("--type", "B", "--rank", "2"), ("--type", "B", "--rank", "3"))
WORDS = st.text(alphabet="01234,", max_size=6)
CODIMS = st.integers(-2, 10)
EXPR_TOKENS = ["w1", "w2", "t1", "+", "-", "*", "^", "(", ")", "/"] + list("0123456789")
EXPRS = st.lists(st.sampled_from(EXPR_TOKENS), max_size=8).map(lambda ts: "".join(ts)[:12])


@st.composite
def cli_argvs(draw):
    command = draw(
        st.sampled_from(
            ["basis", "expand", "delta", "chevalley", "giambelli", "structconst", "chow"]
        )
    )
    options = {
        "basis": [("--codim", CODIMS)],
        "expand": [("--expr", EXPRS)],
        "delta": [("--word", WORDS), ("--expr", EXPRS)],
        "chevalley": [("--u", WORDS), ("--word", WORDS)],
        "giambelli": [("--word", WORDS)],
        "structconst": [("--u", WORDS), ("--v", WORDS)],
        "chow": [("--variant", st.sampled_from(["spin", "so"]))],
    }[command]
    if command == "chow" and draw(st.booleans()):
        options.append(("--max-codim", CODIMS))
    argv = [command, *draw(st.sampled_from(CLI_TYPES))]
    argv += [f"{flag}={draw(values)}" for flag, values in options]
    return argv + ["--format", draw(st.sampled_from(["table", "json"]))]


@settings(max_examples=120, deadline=None)
@given(cli_argvs())
def test_cli_exit_codes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    assert code in (0, 1, 2), (argv, out.getvalue())


@st.composite
def json_argvs(draw):
    """A valid ``--format json`` call of a subcommand on G2, B2 or B3."""
    type_args = draw(st.sampled_from(CLI_TYPES))
    group = calculus_for(cartan_type(type_args[1], *map(int, type_args[3:]))).group
    n = group.longest_length

    def element(top):
        return draw(st.sampled_from(group.elements_of_length(draw(st.integers(0, top)))))

    expr = "*".join(draw(st.lists(st.sampled_from(["w1", "w2"]), min_size=1, max_size=4)))
    u = element(n)
    options = {
        "basis": [("--codim", draw(st.integers(0, n)))],
        "expand": [("--expr", expr)],
        "delta": [("--word", u), ("--expr", expr)],
        "chevalley": [("--u", draw(st.integers(1, group.rank))), ("--word", u)],
        "giambelli": [("--word", u)],
        "structconst": [("--u", u), ("--v", element(n - u.length))],  # l(u) + l(v) <= N
        "chow": [("--variant", draw(st.sampled_from(["spin", "so"])))],
    }
    command = draw(st.sampled_from(sorted(options)))
    flags = [f"{flag}={value}" for flag, value in options[command]]
    return [command, *type_args, *flags, "--format", "json"]


@FAST
@given(json_argvs())
def test_json_reemission_is_identity(argv):
    # loading the JSON output and dumping it again gives the same bytes
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    assert code == 0 and text, argv
    assert _json_dumps(json.loads(text)) + "\n" == text, argv
