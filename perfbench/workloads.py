"""The three benchmark workloads: their seeded inputs and one timed pass each.

Every workload drives flagcalc only through its public modules, looked up at
call time (``chowring.verify_chow``, ``cli.main``, ...) so that the tracer's
wrappers see the calls.  A pass is a list of operations; each operation is
timed on its own and returns what the correctness gate needs.

``small=True`` shrinks each workload to a few seconds for the smoke tests.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field

# Check counts of the seed code, per operation label; the gate requires them.
EXPECTED_CHECKS = {
    "chow/B3/simply_connected": 4, "chow/B3/special_orthogonal": 8,
    "chow/B4/simply_connected": 4, "chow/B4/special_orthogonal": 12,
    "chow/D4/simply_connected": 4, "chow/D4/special_orthogonal": 8,
    "chow/D5/simply_connected": 4, "chow/D5/special_orthogonal": 12,
    "chow/G2/simply_connected": 4, "chow/F4/simply_connected": 7,
    "presentations/G2": 23, "presentations/F4": 91,
    "presentations/B": 160, "presentations/D": 83,
}

# Number of positive roots N (the top Schubert degree) of each group the
# query mix uses.  Rank 5 gets only the cheap commands.
TOP_DEGREE = {"G2": 6, "B3": 9, "B4": 16, "D4": 12, "F4": 24, "D5": 20}


def family_rank(label: str) -> tuple:
    """``"B4"`` -> ``("B", 4)``; ``"F4"`` -> ``("F4", None)``."""
    if label in ("G2", "F4"):
        return label, None
    return label[0], int(label[1:])


def _ct(label: str):
    from flagcalc import rootdata

    return rootdata.cartan_type(*family_rank(label))


def engine(label: str):
    """The shared engine for a type label such as ``"B4"`` or ``"F4"``."""
    from flagcalc import schubert

    return schubert.calculus_for(_ct(label))


def clear_engines() -> None:
    from flagcalc import schubert

    schubert.calculus_for.cache_clear()


def enumerate_all(label: str) -> int:
    """Build the engine for ``label`` and enumerate every length stratum."""
    group = engine(label).group
    return sum(len(group.elements_of_length(k)) for k in range(group.longest_length + 1))


# ---------------------------------------------------------------------------
# Verification workloads
# ---------------------------------------------------------------------------


@dataclass
class VerifyOp:
    label: str  # e.g. "D5/special_orthogonal" or "presentations/F4"
    expected_checks: int
    call: object  # zero-argument callable returning a VerificationReport
    clear_before: bool = False  # start from an empty engine cache


def _chow_op(label: str, variant: str, clear: bool) -> VerifyOp:
    def call():
        from flagcalc import chowring

        return chowring.verify_chow(*family_rank(label), variant)

    name = f"chow/{label}/{variant}"
    return VerifyOp(name, EXPECTED_CHECKS[name], call, clear)


def _presentation_op(family: str) -> VerifyOp:
    def call():
        from flagcalc import presentations

        return presentations.verify_presentations(family)

    name = f"presentations/{family}"
    return VerifyOp(name, EXPECTED_CHECKS[name], call)


def chow_bd_ops(small: bool) -> list:
    """verify_chow of B3, B4, D4, D5, both variants, each type from a cold cache."""
    types = ["B3", "D4"] if small else ["B3", "B4", "D4", "D5"]
    ops = []
    for label in types:
        for i, variant in enumerate(("simply_connected", "special_orthogonal")):
            ops.append(_chow_op(label, variant, clear=i == 0))
    return ops


def dictionaries_ops(small: bool) -> list:
    """Presentation suites of G2, F4, B, D and the G2/F4 Chow rings, one engine per type."""
    families = ["G2"] if small else ["G2", "F4", "B", "D"]
    ops = []
    for family in families:
        ops.append(_presentation_op(family))
        if family in ("G2", "F4"):
            ops.append(_chow_op(family, "simply_connected", clear=False))
    ops[0].clear_before = True
    return ops


# ---------------------------------------------------------------------------
# Query workload
# ---------------------------------------------------------------------------


@dataclass
class Query:
    argv: tuple
    cmd: str
    type: str  # label in TOP_DEGREE
    expect: int  # documented exit code: 0, or 2 for a malformed input
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.cmd


@dataclass
class QueryResult:
    code: object  # exit code, or "exception"
    stdout: str
    stderr: str


def run_query(argv) -> QueryResult:
    """One ``flagcalc`` invocation, as a fresh process would run it."""
    from flagcalc import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a traceback a user would see: a failed query
        return QueryResult("exception", out.getvalue(), f"{type(exc).__name__}: {exc}")
    return QueryResult(code, out.getvalue(), err.getvalue())


def _type_args(label: str) -> list:
    family, rank = family_rank(label)
    args = ["--type", family]
    if rank is not None:
        args += ["--rank", str(rank)]
    return args


class _QueryMaker:
    """Seeded inputs for one type; elements are drawn from the library's strata."""

    def __init__(self, rng: random.Random, label: str):
        self.rng = rng
        self.label = label
        self.N = TOP_DEGREE[label]
        calc = engine(label)
        self.group = calc.group
        self.rank = calc.rank
        datum = calc.datum
        names = [f"w{j}" for j in range(1, self.rank + 1)]
        for i in range(1, datum.num_t_classes + 1):
            if all(isinstance(c, int) for c in datum.t_weight(i)):
                names.append(f"t{i}")
        if datum.extra_t is not None:
            names.append("t")
        self.variables = names

    def element(self, lo: int, hi: int):
        k = self.rng.randint(max(lo, 0), min(hi, self.N))
        return self.rng.choice(self.group.sorted_stratum(k))

    def word_text(self, w) -> str:
        # A quarter of the words use the comma form, which the CLI also accepts.
        if w.length and self.rng.random() < 0.25:
            return ",".join(str(i) for i in w.word)
        return w.word_str()

    def expression(self, degree: int) -> str:
        terms = []
        for _ in range(2):
            factors = sorted(self.rng.choice(self.variables) for _ in range(degree))
            powers = {}
            for v in factors:
                powers[v] = powers.get(v, 0) + 1
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers.items())
            c = self.rng.choice([1, 1, 2, 3, -1, -2])
            terms.append((c, mono if degree else "1"))
        text = ""
        for c, mono in terms:
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not text:
                text = body if c > 0 else f"-{body}"
            else:
                text += f" {'+' if c > 0 else '-'} {body}"
        return text

    def query(self, cmd: str, extra: list, params: dict, expect: int = 0) -> Query:
        argv = (cmd, *_type_args(self.label), *extra, "--format", "json")
        return Query(argv, cmd, self.label, expect, params)

    # -- well-formed commands ------------------------------------------------

    def basis(self, lo: int, hi: int) -> Query:
        k = self.rng.randint(lo, min(hi, self.N))
        return self.query("basis", ["--codim", str(k)], {"codim": k})

    def expand(self, lo: int, hi: int) -> Query:
        expr = self.expression(self.rng.randint(lo, min(hi, self.N)))
        return self.query("expand", [f"--expr={expr}"], {"expr": expr})

    def delta(self, lo: int, hi: int) -> Query:
        w = self.element(lo, hi)
        expr = self.expression(w.length + 1)
        return self.query(
            "delta", ["--word", self.word_text(w), f"--expr={expr}"],
            {"word": w.word, "expr": expr},
        )

    def chevalley(self, lo: int, hi: int) -> Query:
        u = self.rng.randint(1, self.rank)
        w = self.element(lo, min(hi, self.N - 1))
        return self.query(
            "chevalley", ["--u", str(u), "--word", self.word_text(w)],
            {"u": u, "word": w.word},
        )

    def giambelli(self, lo: int, hi: int) -> Query:
        w = self.element(lo, hi)
        return self.query("giambelli", ["--word", self.word_text(w)], {"word": w.word})

    def structconst(self, lo: int, hi: int) -> Query:
        u = self.element(lo, hi)
        return self._structconst(u, self.element(lo, min(hi, self.N - u.length)))

    def structconst_simple(self, lo: int, hi: int) -> Query:
        """A product with a simple class, which the gate checks against chevalley."""
        v = self.element(lo, min(hi, self.N - 1))
        return self._structconst(self.element(1, 1), v)

    def _structconst(self, u, v) -> Query:
        return self.query(
            "structconst", ["--u", self.word_text(u), "--v", self.word_text(v)],
            {"u": u.word, "v": v.word},
        )

    # -- malformed inputs, documented to exit 2 ---------------------------------

    def non_reduced(self) -> Query:
        w = self.element(1, min(4, self.N - 1))
        word = w.word_str() + str(w.word[-1])
        cmd = self.rng.choice(["giambelli", "chevalley"])
        extra = ["--word", word] if cmd == "giambelli" else ["--u", "1", "--word", word]
        return self.query(cmd, extra, {"malformed": "non-reduced word"}, expect=2)

    def non_integral(self) -> Query:
        expr = f"1/2*w{self.rng.randint(1, self.rank)}"
        return self.query("expand", ["--expr", expr], {"malformed": "non-integral"}, expect=2)

    def over_degree(self) -> Query:
        e = self.N + self.rng.randint(1, 3)
        var = "t" if self.label == "F4" else f"w{self.rng.randint(1, self.rank)}"
        return self.query("expand", ["--expr", f"{var}^{e}"], {"malformed": "degree > N"}, expect=2)

    # -- inputs that exit 2 by contract but raise ValueError at the seed ---------

    def non_homogeneous(self) -> Query:
        v = f"w{self.rng.randint(1, self.rank)}"
        return self.query("expand", ["--expr", f"{v} + {v}^2"], {"malformed": "non-homogeneous"}, expect=2)

    def non_digit_letter(self) -> Query:
        extra = ["--word", f"{self.rng.randint(1, self.rank)},a", "--expr", "w1"]
        return self.query("delta", extra, {"malformed": "non-digit letter"}, expect=2)


# Per type: (command, count, low, high) where low..high bounds the length or
# degree drawn.  The bands are narrow, most of them a single value, so a seed
# changes the elements but not the load: with wide bands the median latency
# moved by 20% from seed to seed.  The cold F4 Giambelli descents (giambelli,
# structconst) cost about the same for every element; there are more of them
# than the 10% tail of a pass, so the 90th percentile falls inside that group
# rather than on a seed-dependent edge.
def _small_group_mix(N: int) -> list:
    return [
        ("basis", 3, N // 2, N // 2), ("expand", 2, 2, 2), ("expand", 2, 3, 3),
        ("delta", 3, 2, 2), ("chevalley", 3, N // 3, N // 3),
        ("giambelli", 3, N // 3, N // 3), ("structconst_simple", 2, 3, 3),
        ("structconst", 2, 2, 2),
    ]


QUERY_MIX = {
    "G2": _small_group_mix(6),
    "B3": _small_group_mix(9),
    "B4": _small_group_mix(16),
    "D4": _small_group_mix(12),
    "F4": [
        ("basis", 1, 3, 3), ("basis", 1, 10, 10), ("basis", 1, 22, 22),
        ("expand", 4, 3, 3), ("delta", 4, 2, 2), ("chevalley", 4, 4, 4),
        ("giambelli", 8, 4, 4), ("structconst_simple", 2, 3, 3), ("structconst", 4, 2, 2),
    ],
    "D5": [
        ("basis", 2, 3, 3), ("basis", 1, 10, 10), ("expand", 3, 2, 2),
        ("delta", 3, 2, 2), ("chevalley", 5, 4, 4),
    ],
}
MALFORMED = [("non_reduced", 2), ("non_integral", 2), ("over_degree", 2)]
SMALL_MIX = {
    "G2": [("basis", 1, 0, 99), ("expand", 1, 1, 3), ("delta", 1, 1, 2),
           ("chevalley", 1, 0, 99), ("giambelli", 1, 0, 99), ("structconst_simple", 1, 1, 3)],
    "B3": [("expand", 1, 1, 3), ("structconst", 1, 1, 3)],
}


def make_queries(seed: int, small: bool) -> tuple:
    """(timed queries in seeded order, known-defect probes), same for the same seed."""
    rng = random.Random(seed)
    mix = SMALL_MIX if small else QUERY_MIX
    makers = {label: _QueryMaker(rng, label) for label in mix}
    queries = []
    for label, slots in mix.items():
        for cmd, count, lo, hi in slots:
            queries += [getattr(makers[label], cmd)(lo, hi) for _ in range(count)]
    malformed_types = [label for label in mix if label != "D5"]
    for kind, count in MALFORMED[: 1 if small else None]:
        for _ in range(count):
            queries.append(getattr(makers[rng.choice(malformed_types)], kind)())
    rng.shuffle(queries)
    probes = [
        makers[rng.choice(malformed_types)].non_homogeneous(),
        makers[rng.choice(malformed_types)].non_digit_letter(),
    ]
    return queries, probes
