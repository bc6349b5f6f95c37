"""Command-line interface.

Subcommands: basis, expand, delta, chevalley, giambelli, structconst, chow,
verify.  Exit codes: 0 on success (and all checks passing for ``verify``),
1 on verification failure, 2 on usage, parse or input errors.  A reader
that closes stdout before the output is written (``| head``) also gets 1,
for output cut short, and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chowring, presentations
from .errors import FlagcalcError, InvalidWordError, OutOfRangeError
from .exprparse import parse_polynomial
from .rootdata import FAMILIES, cartan_type
from .schubert import calculus_for
from .weylgroup import length_counts

_VARIANT = {"spin": "simply_connected", "so": "special_orthogonal"}

# ``basis`` enumerates every element up to its length; B7 up to length 28
# needs 461,454
BASIS_MAX_ELEMENTS = 500_000


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

    Letters are ASCII digits; a comma-separated word has no empty item, except
    that a word of one letter above 9 ends in a comma ("10,"), as ``word_str``
    prints it.  Any reduced word for the element is accepted, so printed table
    words and lex-min words are interchangeable; non-reduced words are
    rejected naming the element they evaluate to.
    """
    text = text.strip()
    if text in ("", "e"):
        return calc.group.identity
    if "," in text:
        items = [p.strip() for p in text.split(",")]
        if len(items) == 2 and not items[1]:
            items.pop()
        if not all(p.isascii() and p.isdigit() for p in items) or (
            len(items) == 1 and int(items[0]) <= 9
        ):
            raise InvalidWordError(f"word {text!r} must be comma-separated integers")
        letters = list(map(int, items))
    else:
        if not (text.isascii() and text.isdigit()):
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
    k = args.codim
    if 0 <= k <= calc.group.longest_length:
        # enumerating stratum k interns every element of length at most k
        size = sum(length_counts(calc.datum.positive_roots)[: k + 1])
        if size > BASIS_MAX_ELEMENTS:
            raise OutOfRangeError(
                f"codimension {k} of {calc.cartan_type.name} needs {size:,} elements "
                f"of length at most {k}, above the cap of {BASIS_MAX_ELEMENTS:,}"
            )
    words = [w.word_str() for w in calc.group.sorted_stratum(k)]
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
            print(f"  codim {s['codim']}: {chowring.factor_text(s['factors'])}")
        bad = [c for c in payload["checks"] if not c["pass"]]
        print(f"checks: {len(payload['checks']) - len(bad)} passed, {len(bad)} failed")
    ok = all(c["pass"] for c in payload["checks"])
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    families = FAMILIES if args.type == "all" else args.type.split(",")
    suites = []  # (family, its Chow ranks); every input is checked before any suite runs
    for fam in families:
        presentations.presentation_types(fam, args.rank)
        if fam in ("G2", "F4"):
            ranks = [None]
        else:
            ranks = [args.rank] if args.rank else ([3, 4, 5] if fam == "B" else [4, 5])
        for r in ranks:
            chowring.chow_engine(fam, r, args.max_codim)
        suites.append((fam, ranks))
    reports = []
    for fam, ranks in suites:
        reports.append(presentations.verify_presentations(fam, args.rank))
        reports += [chowring.verify_chow(fam, r, None, args.max_codim) for r in ranks]
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


_DESCRIPTION = (
    "Exact Schubert calculus on flag manifolds of types "
    "B, D, G2, F4, and Chow rings of the corresponding groups."
)
_REQUIRED = {"required": True}
_FORMAT = ("--format", {"choices": ["table", "json"], "default": "table"})
_COMMON = [
    ("--type", {"required": True, "choices": FAMILIES}),
    ("--rank", {"type": int}),
    _FORMAT,
]

# name -> (help line, handler, arguments as (flag, add_argument keywords))
_COMMANDS = {
    "basis": ("Schubert basis words of one codimension", _cmd_basis,
              [*_COMMON, ("--codim", {"type": int, "required": True})]),
    "expand": ("expand a polynomial in the Schubert basis", _cmd_expand,
               [*_COMMON, ("--expr", _REQUIRED)]),
    "delta": ("apply a divided difference operator", _cmd_delta,
              [*_COMMON, ("--word", _REQUIRED), ("--expr", _REQUIRED)]),
    "chevalley": ("degree-1 product Z_u * Z_w", _cmd_chevalley,
                  [*_COMMON, ("--u", {"required": True, "help": "a single simple index"}),
                   ("--word", _REQUIRED)]),
    "giambelli": ("polynomial representative of Z_w", _cmd_giambelli,
                  [*_COMMON, ("--word", _REQUIRED)]),
    "structconst": ("expansion of Z_u * Z_v", _cmd_structconst,
                    [*_COMMON, ("--u", _REQUIRED), ("--v", _REQUIRED)]),
    "chow": ("Chow ring of the algebraic group", _cmd_chow,
             [*_COMMON, ("--variant", {"choices": ["spin", "so"], "default": "spin"}),
              ("--max-codim", {"type": int, "default": None})]),
    "verify": ("run the full verification suite", _cmd_verify,
               [("--type", {"required": True,
                            "help": "B, D, G2, F4, a comma list of these, or 'all'"}),
                ("--rank", {"type": int, "default": None}),
                ("--max-codim", {"type": int, "default": None}),
                _FORMAT]),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, fn, arguments = _COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(fn=fn)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, for help and for unknown commands."""
    parser = argparse.ArgumentParser(prog="flagcalc", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; exit codes as in the module docstring.

    A known subcommand builds only its own parser, as ``build_parser``
    would build it.  Anything else, and arguments that parser leaves over,
    goes through ``build_parser``, which prints the same help and errors.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"flagcalc {argv[0]}")
        args, extra = _add_arguments(parser, argv[0]).parse_known_args(argv[1:])
        if extra:
            args = None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except FlagcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the exit-time flush then writes what is left to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
