"""Correctness gate, run after the timed phase.

Verification workloads: every report passes and has the seed's check count.

Query workload: every query exits with its documented code and no exception
escapes ``main``; at the default seed each output matches the committed
digest; at any seed each output satisfies an identity computed by another
route through the library:

* structconst: Z_u Z_v = Z_v Z_u, and equals the Chevalley rule when l(u) = 1;
* chevalley: equals structconst with the simple class (ranks up to 4; at rank
  5 the Giambelli route is too slow and the digest covers it);
* giambelli: schubert_expand(giambelli_poly(w)) = Z_w;
* expand and delta: divided differences along a different reduced word;
* basis: distinct reduced words of the right length, as many as the
  coefficient of q^codim in the Poincare polynomial.
"""

from __future__ import annotations

import hashlib
import json
import os

import workloads

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "queries_seed0.json")
DEFAULT_SEED = 0

# Degrees of the basic invariants; the Poincare polynomial is the product of
# (1 + q + ... + q^(d-1)) over them.
_DEGREES = {
    "G2": (2, 6),
    "B3": (2, 4, 6),
    "B4": (2, 4, 6, 8),
    "D4": (2, 4, 6, 4),
    "F4": (2, 6, 8, 12),
    "D5": (2, 4, 6, 8, 5),
}


def poincare_coefficient(label: str, k: int) -> int:
    coeffs = [1]
    for d in _DEGREES[label]:
        nxt = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                nxt[i + j] += c
        coeffs = nxt
    return coeffs[k] if 0 <= k < len(coeffs) else 0


def output_digest(result) -> str:
    text = f"{result.code}\n{result.stdout}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def argv_digest(queries) -> str:
    return hashlib.sha256(json.dumps([q.argv for q in queries]).encode()).hexdigest()[:16]


def load_digests(seed: int, queries):
    """Committed output digests for the default seed; None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    with open(DIGEST_FILE) as fh:
        data = json.load(fh)
    if data["argv_sha"] != argv_digest(queries):
        raise ValueError(f"{DIGEST_FILE} was made for other query inputs")
    return data["outputs"]


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


def check_reports(ops, reports) -> tuple:
    """(attempted checks, failed checks, problems) for one pass."""
    attempted = failed = 0
    problems = []
    for op, report in zip(ops, reports):
        attempted += op.expected_checks
        bad = [c.name for c in report.checks if not c.passed]
        failed += len(bad) + max(0, op.expected_checks - len(report.checks))
        if len(report.checks) != op.expected_checks:
            problems.append(
                f"{op.label}: {len(report.checks)} checks, the seed has {op.expected_checks}"
            )
        if bad:
            problems.append(f"{op.label}: failed {bad}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def _other_reduced_word(group, w) -> tuple:
    """A reduced word built from the largest right descent at each step.

    The library stores the lexicographically smallest word, so this is
    usually a different route to the same element.
    """
    letters = []
    while w.length:
        i = max(i for i in range(1, group.rank + 1) if group.descends(w, i))
        letters.append(i)
        w = group.compose(w, group.simple_reflection(i))
    return tuple(reversed(letters))


def identity_problem(query, out: dict):
    """None when the output of a well-formed query passes its identity."""
    from flagcalc import exprparse

    calc = workloads.engine(query.type)
    group = calc.group
    p = query.params
    element = group.element_from_word
    if query.cmd == "structconst":
        u, v = element(p["u"]), element(p["v"])
        if out != calc.structure_constants(v, u).to_json_dict():
            return "Z_u*Z_v differs from Z_v*Z_u"
        for a, b in ((u, v), (v, u)):
            if a.length == 1 and out != calc.chevalley_product(a.word[0], b).to_json_dict():
                return "structconst differs from the Chevalley rule"
    elif query.cmd == "chevalley":
        if calc.rank <= 4:
            s, w = group.simple_reflection(p["u"]), element(p["word"])
            if out != calc.structure_constants(s, w).to_json_dict():
                return "chevalley differs from structconst"
    elif query.cmd == "giambelli":
        w = element(p["word"])
        poly = exprparse.parse_polynomial(out["poly"], calc.datum)
        if out["word"] != w.word_str() or calc.schubert_expand(poly) != calc.indicator(w):
            return "schubert_expand(giambelli_poly(w)) is not Z_w"
    elif query.cmd == "expand":
        f = exprparse.parse_polynomial(p["expr"], calc.datum)
        k = max(f.degree(), 0)
        want = {}
        for v in group.sorted_stratum(k):
            c = calc.delta_word(_other_reduced_word(group, v), f).constant_term()
            if c:
                want[v.word_str()] = c
        if out != {"codim": k, "coeffs": want}:
            return "expansion differs from divided differences along other words"
    elif query.cmd == "delta":
        w = element(p["word"])
        f = exprparse.parse_polynomial(p["expr"], calc.datum)
        g = calc.delta_word(_other_reduced_word(group, w), f)
        if out != {"word": w.word_str(), "poly": g.format()}:
            return "delta differs along another reduced word"
    elif query.cmd == "basis":
        k = p["codim"]
        elems = {element([int(ch) for ch in word if ch != "e"]) for word in out["words"]}
        if (
            len(elems) != len(out["words"])
            or any(e.length != k for e in elems)
            or len(elems) != poincare_coefficient(query.type, k)
        ):
            return "basis is not the set of elements of this length"
    return None


def check_queries(queries, results, digests=None) -> dict:
    """Failed queries of one pass: query index -> what is wrong."""
    problems = {}
    try:
        for i, (q, r) in enumerate(zip(queries, results)):
            line = " ".join(q.argv)
            if r.code == "exception":
                problems[i] = f"{line}: raised {r.stderr}"
                continue
            if r.code != q.expect:
                problems[i] = f"{line}: exit {r.code}, expected {q.expect}"
                continue
            if digests is not None and output_digest(r) != digests[i]:
                problems[i] = f"{line}: output differs from the committed digest"
                continue
            if q.expect == 0:
                try:
                    out = json.loads(r.stdout)
                except json.JSONDecodeError:
                    problems[i] = f"{line}: output is not JSON"
                    continue
                try:
                    why = identity_problem(q, out)
                except Exception as exc:  # malformed output the identity cannot read
                    why = f"output not checkable: {type(exc).__name__}: {exc}"
                if why:
                    problems[i] = f"{line}: {why}"
    finally:
        workloads.clear_engines()
    return problems


def write_digests(seed: int = DEFAULT_SEED) -> None:
    """Record the current outputs of the default-seed queries as the reference."""
    queries, _ = workloads.make_queries(seed, small=False)
    outputs = []
    for q in queries:
        workloads.clear_engines()
        outputs.append(output_digest(workloads.run_query(q.argv)))
    workloads.clear_engines()
    with open(DIGEST_FILE, "w") as fh:
        json.dump({"seed": seed, "argv_sha": argv_digest(queries), "outputs": outputs}, fh, indent=0)
        fh.write("\n")
