"""Command-line interface.

Subcommands: basis, expand, delta, chevalley, giambelli, structconst, chow,
verify.  Exit codes: 0 on success (and all checks passing for ``verify``),
1 on verification failure, 2 on usage, parse or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chowring, presentations
from .errors import FlagcalcError, InvalidWordError
from .exprparse import parse_polynomial
from .rootdata import cartan_type
from .schubert import calculus_for

_VARIANT = {"spin": "simply_connected", "so": "special_orthogonal"}


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(args, payload: dict, table) -> None:
    """Print the JSON payload, or the text that ``table()`` builds."""
    if args.format == "json":
        print(_json_dumps(payload))
    else:
        print(table())


def _calc(args):
    ct = cartan_type(args.type, getattr(args, "rank", None))
    return calculus_for(ct)


def _parse_word(calc, text: str):
    """Resolve a word given as digits (or comma-separated letters) to an element.

    Any reduced word for the element is accepted, so printed table words and
    lex-min words are interchangeable; non-reduced words are rejected naming
    the element they evaluate to.
    """
    text = text.strip()
    if text in ("", "e"):
        return calc.group.identity
    if "," in text:
        try:
            letters = [int(p) for p in text.split(",") if p]
        except ValueError:
            raise InvalidWordError(
                f"word {text!r} must be comma-separated integers"
            ) from None
    else:
        if not text.isdigit():
            raise InvalidWordError(f"word {text!r} must consist of digits")
        letters = [int(ch) for ch in text]
    w = calc.group.element_from_word(letters)
    if w.length != len(letters):
        raise InvalidWordError(
            f"word {text!r} is not reduced; it evaluates to {w.word_str()}"
        )
    return w


def _cmd_basis(args) -> int:
    calc = _calc(args)
    words = [w.word_str() for w in calc.group.sorted_stratum(args.codim)]
    _emit(
        args,
        {"type": calc.cartan_type.name, "codim": args.codim, "words": words},
        lambda: " ".join(words),
    )
    return 0


def _cmd_expand(args) -> int:
    calc = _calc(args)
    f = parse_polynomial(args.expr, calc.datum)
    exp = calc.schubert_expand(f)
    _emit(args, exp.to_json_dict(), exp.__str__)
    return 0


def _cmd_delta(args) -> int:
    calc = _calc(args)
    f = parse_polynomial(args.expr, calc.datum)
    w = _parse_word(calc, args.word)
    text = calc.delta_w(w, f).format()
    _emit(args, {"word": w.word_str(), "poly": text}, lambda: text)
    return 0


def _cmd_chevalley(args) -> int:
    calc = _calc(args)
    u = _parse_word(calc, args.u)
    if u.length != 1:
        raise InvalidWordError("--u must be a single simple reflection")
    w = _parse_word(calc, args.word)
    exp = calc.chevalley_product(u.word[0], w)
    _emit(args, exp.to_json_dict(), exp.__str__)
    return 0


def _cmd_giambelli(args) -> int:
    calc = _calc(args)
    w = _parse_word(calc, args.word)
    text = calc.giambelli_poly(w).format()
    _emit(args, {"word": w.word_str(), "poly": text}, lambda: text)
    return 0


def _cmd_structconst(args) -> int:
    calc = _calc(args)
    u = _parse_word(calc, args.u)
    v = _parse_word(calc, args.v)
    exp = calc.structure_constants(u, v)
    _emit(args, exp.to_json_dict(), exp.__str__)
    return 0


def _cmd_chow(args) -> int:
    variant = _VARIANT[args.variant]
    payload = chowring.chow_to_json(args.type, args.rank, variant, args.max_codim)
    if args.format == "json":
        print(_json_dumps(payload))
    else:
        print(f"A({payload['presentation']['group']})  [{payload['type']}]")
        for s in payload["strata"]:
            fs = " + ".join("Z" if f == 0 else f"Z/{f}" for f in s["factors"])
            print(f"  codim {s['codim']}: {fs}")
        bad = [c for c in payload["checks"] if not c["pass"]]
        print(f"checks: {len(payload['checks']) - len(bad)} passed, {len(bad)} failed")
    ok = all(c["pass"] for c in payload["checks"])
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    families = (
        ["B", "D", "G2", "F4"] if args.type == "all" else args.type.split(",")
    )
    reports = []
    for fam in families:
        reports.append(presentations.verify_presentations(fam, args.rank))
        if fam in ("G2", "F4"):
            reports.append(chowring.verify_chow(fam, None, None, args.max_codim))
        else:
            ranks = [args.rank] if args.rank else ([3, 4, 5] if fam == "B" else [4, 5])
            for r in ranks:
                reports.append(chowring.verify_chow(fam, r, None, args.max_codim))
    all_passed = all(r.all_passed for r in reports)
    if args.format == "json":
        print(_json_dumps({"all_passed": all_passed,
                           "reports": [r.to_json_dict() for r in reports]}))
    else:
        for r in reports:
            print(r.to_table())
        total = sum(len(r.checks) for r in reports)
        failed = sum(len(r.failures()) for r in reports)
        print(f"total: {total - failed}/{total} checks passed")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcalc",
        description="Exact Schubert calculus on flag manifolds of types "
        "B, D, G2, F4, and Chow rings of the corresponding groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--type", required=True, choices=["B", "D", "G2", "F4"])
        p.add_argument("--rank", type=int)
        p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("basis", help="Schubert basis words of one codimension")
    add_common(p)
    p.add_argument("--codim", type=int, required=True)
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("expand", help="expand a polynomial in the Schubert basis")
    add_common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("delta", help="apply a divided difference operator")
    add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("chevalley", help="degree-1 product Z_u * Z_w")
    add_common(p)
    p.add_argument("--u", required=True, help="a single simple index")
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_chevalley)

    p = sub.add_parser("giambelli", help="polynomial representative of Z_w")
    add_common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_giambelli)

    p = sub.add_parser("structconst", help="expansion of Z_u * Z_v")
    add_common(p)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(fn=_cmd_structconst)

    p = sub.add_parser("chow", help="Chow ring of the algebraic group")
    add_common(p)
    p.add_argument("--variant", choices=["spin", "so"], default="spin")
    p.add_argument("--max-codim", type=int, default=None)
    p.set_defaults(fn=_cmd_chow)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument(
        "--type",
        required=True,
        help="B, D, G2, F4, a comma list of these, or 'all'",
    )
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--max-codim", type=int, default=None)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except FlagcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
