import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flagcalc import cli
from flagcalc.cli import _json_dumps, main
from flagcalc.rootdata import build_root_datum, cartan_type
from flagcalc.schubert import SchubertExpansion
from flagcalc.weylgroup import length_counts


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasis:
    def test_g2_codim3(self, capsys):
        code, out, _ = run(capsys, "basis", "--type", "G2", "--codim", "3")
        assert code == 0
        assert out.split() == ["121", "212"]

    def test_rank_above_the_cap_exits_2_at_once(self, capsys):
        for family in ("B", "D"):
            start = time.perf_counter()
            code, out, err = run(
                capsys, "basis", "--type", family, "--rank", "100000", "--codim", "1"
            )
            assert code == 2 and out == ""
            assert "rank at most 30" in err
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("rank,codim,size", [
        (12, 20, "109,543,070"),
        (30, 40, "32,079,666,488,323,342,350"),
    ])
    def test_over_the_enumeration_cap_exits_2_at_once(self, capsys, rank, codim, size):
        # the count up to the length comes from the Poincare polynomial, so
        # nothing is enumerated before the refusal
        start = time.perf_counter()
        code, out, err = run(
            capsys, "basis", "--type", "B", "--rank", str(rank), "--codim", str(codim)
        )
        assert code == 2 and out == ""
        assert f"needs {size} elements of length at most {codim}" in err
        assert "above the cap of 500,000" in err
        assert time.perf_counter() - start < 1.0

    def test_the_cap_admits_b7_up_to_length_29(self):
        # B7 up to length 28, the largest enumeration of a pinned run, has
        # 461,454 elements; up to 29, 491,616; up to 30, 519,056
        counts = length_counts(build_root_datum(cartan_type("B", 7)).positive_roots)
        assert sum(counts[:29]) == 461_454
        assert sum(counts[:30]) <= cli.BASIS_MAX_ELEMENTS < sum(counts[:31])

    def test_f4_codim2_count(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--type", "F4", "--codim", "2", "--format", "json"
        )
        assert code == 0
        words = json.loads(out)["words"]
        assert len(words) == 9


class TestExpand:
    def test_g2_c3(self, capsys):
        code, out, _ = run(capsys, "expand", "--type", "G2", "--expr", "t1*t2*t3")
        assert code == 0
        assert out.strip() == "-2*Z_121"

    def test_f4_gamma4_combination(self, capsys):
        expr = (
            "t1*t2*t3*t4 - 2*t*(t1*t2*t3 + t1*t2*t4 + t1*t3*t4 + t2*t3*t4) + 8*t^4"
        )
        code, out, _ = run(capsys, "expand", "--type", "F4", "--expr", expr)
        assert code == 0
        assert (
            out.strip()
            == "3*Z_1234 - 30*Z_1243 + 12*Z_1323 - 3*Z_3234 + 30*Z_3243 - 24*Z_4323"
        )

    def test_b12(self, capsys):
        # 2N = 288 roots: the group stores its permutations as tuples
        code, out, _ = run(capsys, "expand", "--type", "B", "--rank", "12", "--expr", "w1^2*w3")
        assert code == 0
        assert out.strip() == "Z_213 + Z_321"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "--type", "G2", "--expr", "w1 +* w2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "expr,message",
        [
            ("", "unexpected end of expression"),
            ("w1+", "unexpected end of expression"),
            ("(w1", "expected ')', found end of expression"),
        ],
    )
    def test_truncated_input_names_the_end(self, capsys, expr, message):
        code, out, err = run(capsys, "expand", "--type", "G2", "--expr", expr)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "family,rank,name",
        [
            ("B", "3", "t01"),
            ("B", "3", "w01"),
            ("B", "3", "w4"),
            ("B", "3", "t4"),
            ("B", "3", "t"),
            ("G2", None, "t4"),
            ("B", "3", "w" + "1" * 5000),
        ],
        ids=[
            "t01", "w01", "w-above-rank", "t-above-count", "bare-t-on-B", "t4-on-G2",
            "w-5000-digits",
        ],
    )
    def test_names_outside_the_variables_exit_2(self, capsys, family, rank, name):
        # a name is read as written, against w1..wl and RootDatum.t_classes
        argv = ["expand", "--type", family] + (["--rank", rank] if rank else [])
        code, out, err = run(capsys, *argv, "--expr", name)
        assert code == 2 and out == ""
        assert err.startswith(f"error: unknown variable '{name[:20]}")

    @pytest.mark.parametrize(
        "family,rank,expr,want",
        [
            ("B", "3", "t1", "Z_1"),
            ("B", "3", "w3", "Z_3"),
            ("B", "12", "t12", "-Z_11, + 2*Z_12,"),
            ("F4", None, "t", "Z_3 - 2*Z_4"),
            ("G2", None, "t3", "2*Z_1 - Z_2"),
        ],
    )
    def test_every_variable_name_reads(self, capsys, family, rank, expr, want):
        argv = ["expand", "--type", family] + (["--rank", rank] if rank else [])
        code, out, _ = run(capsys, *argv, "--expr", expr)
        assert code == 0
        assert out.strip() == want

    def test_non_integral_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "--type", "G2", "--expr", "1/2*w1")
        assert code == 2

    def test_non_homogeneous_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "--type", "G2", "--expr", "w1+w1^2")
        assert code == 2
        assert "homogeneous" in err

    def test_over_degree_exits_2_before_computing(self, capsys):
        expr = "(w1+w2+w3+w4)^120"
        code, _, err = run(capsys, "expand", "--type", "F4", "--expr", expr)
        assert code == 2
        assert "exceeds the number of positive roots" in err

    @pytest.mark.parametrize(
        "expr", ["2^20000", "1" * 5001, "(10^999*w1+w2)^6"], ids=["power", "literal", "sum-power"]
    )
    def test_huge_coefficients_exit_2_quickly(self, capsys, expr):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "expand", "--type", "G2", "--expr", expr, "--format", "json"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "longer than 1000 digits" in err

    def test_json_builds_no_text(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("text table built for --format json")

        monkeypatch.setattr(SchubertExpansion, "__str__", refuse)
        code, out, _ = run(
            capsys, "expand", "--type", "G2", "--expr", "t1*t2*t3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == {"121": -2}

    @pytest.mark.parametrize("depth", [250, 5000])
    def test_deep_parentheses_exit_2(self, capsys, depth):
        expr = "(" * depth + "w1" + ")" * depth
        code, _, err = run(capsys, "expand", "--type", "G2", "--expr", expr)
        assert code == 2
        assert "nested deeper than 100" in err

    def test_parentheses_at_the_nesting_bound_pass(self, capsys):
        expr = "(" * 100 + "w1" + ")" * 100
        code, out, _ = run(capsys, "expand", "--type", "G2", "--expr", expr)
        assert code == 0
        assert out.strip() == "Z_1"

    @pytest.mark.parametrize("signs,want", [(1000, "Z_1"), (1001, "-Z_1")])
    def test_long_runs_of_minus_signs(self, capsys, signs, want):
        code, out, _ = run(
            capsys, "expand", "--type", "G2", "--expr=" + "-" * signs + "w1"
        )
        assert code == 0
        assert out.strip() == want

    def test_coefficients_at_the_bound_pass(self, capsys):
        # 2^3321 has 1000 digits, the most a coefficient may have
        code, out, _ = run(
            capsys, "expand", "--type", "G2", "--expr", "2^3321", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["coeffs"]["e"] == 2**3321


class TestWordHandling:
    def test_delta(self, capsys):
        code, out, _ = run(
            capsys, "delta", "--type", "G2", "--word", "121", "--expr", "t1*t2*t3"
        )
        assert code == 0
        assert out.strip() == "-2"

    def test_printed_word_alias(self, capsys):
        # a non-lex-min reduced word is accepted and resolved by evaluation
        code, out, _ = run(
            capsys, "delta", "--type", "G2", "--word", "212", "--expr", "t1*t2*t3"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_non_reduced_word_rejected(self, capsys):
        code, _, err = run(capsys, "giambelli", "--type", "G2", "--word", "11")
        assert code == 2
        assert "not reduced" in err and "evaluates to" in err

    def test_delta_rejects_non_reduced(self, capsys):
        code, _, err = run(
            capsys, "delta", "--type", "G2", "--word", "1121", "--expr", "w1"
        )
        assert code == 2
        assert "evaluates to 21" in err

    def test_delta_deep_parentheses_exit_2(self, capsys):
        expr = "(" * 400 + "w1*w2" + ")" * 400
        code, _, err = run(
            capsys, "delta", "--type", "G2", "--word", "1", "--expr", expr
        )
        assert code == 2
        assert "nested deeper than 100" in err

    def test_non_digit_letter_exits_2(self, capsys):
        code, _, err = run(
            capsys, "delta", "--type", "B", "--rank", "3", "--word", "1,a",
            "--expr", "w1",
        )
        assert code == 2
        assert "1,a" in err

    @pytest.mark.parametrize(
        "text", ["\u00b2", "1\u00b2", "\u0663", "1,\u0663", "1,,2", ",", "1,", "1_0,2"]
    )
    def test_non_ascii_digit_or_empty_item_exits_2(self, capsys, text):
        code, out, err = run(capsys, "giambelli", "--type", "G2", "--word", text)
        assert code == 2 and out == ""
        assert "Traceback" not in err and repr(text) in err

    def test_printed_words_above_9_read_back(self, capsys):
        # "12" is s1 s2; the one-letter word s12 prints, and reads, as "12,"
        code, out, _ = run(
            capsys, "basis", "--type", "D", "--rank", "12", "--codim", "1",
            "--format", "json",
        )
        assert code == 0
        words = json.loads(out)["words"]
        assert words[8:] == ["9", "10,", "11,", "12,"]
        for i, w in enumerate(words, 1):  # Delta_{s_i} w_i = 1
            code, out, _ = run(
                capsys, "delta", "--type", "D", "--rank", "12", "--word", w,
                "--expr", f"w{i}",
            )
            assert (code, out.strip()) == (0, "1")
        code, out, _ = run(
            capsys, "chevalley", "--type", "D", "--rank", "12", "--u", "1",
            "--word", "12",
        )
        assert code == 0 and "Z_1,12" not in out

    def test_letter_out_of_range(self, capsys):
        code, _, err = run(capsys, "basis", "--type", "G2", "--codim", "9")
        assert code == 2

    def test_chevalley_requires_simple_u(self, capsys):
        code, _, err = run(
            capsys, "chevalley", "--type", "G2", "--u", "12", "--word", "1"
        )
        assert code == 2


class TestStructconst:
    def test_g2(self, capsys):
        code, out, _ = run(
            capsys, "structconst", "--type", "G2", "--u", "1", "--v", "2"
        )
        assert code == 0
        assert out.strip() == "Z_12 + Z_21"

    def test_b6_degree_3_classes(self, capsys):
        # 31 s through Giambelli representatives descended from the top class
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "structconst", "--type", "B", "--rank", "6",
            "--u", "123", "--v", "654", "--format", "json",
        )
        assert time.perf_counter() - start < 10.0
        assert code == 0
        assert out == '{"codim":6,"coeffs":{"123654":1,"126543":1}}\n'


class TestChevalley:
    def test_b3(self, capsys):
        code, out, _ = run(
            capsys, "chevalley", "--type", "B", "--rank", "3", "--u", "3", "--word", "3"
        )
        assert code == 0
        assert "Z_" in out
        # agrees with structconst on the same pair
        code2, out2, _ = run(
            capsys, "structconst", "--type", "B", "--rank", "3", "--u", "3", "--v", "3"
        )
        assert code2 == 0
        assert out.strip() == out2.strip()


class TestGiambelli:
    def test_round_trip_through_expand(self, capsys):
        code, out, _ = run(capsys, "giambelli", "--type", "G2", "--word", "21")
        assert code == 0
        code2, out2, _ = run(capsys, "expand", "--type", "G2", "--expr", out.strip())
        assert code2 == 0
        assert out2.strip() == "Z_21"

    @pytest.mark.parametrize("word", ["1", "7"])
    def test_b7_under_the_size_cap_exits_0(self, capsys, word):
        # B7 has 49 positive roots; these descents reach degree 12 and 16
        code, out, err = run(capsys, "giambelli", "--type", "B", "--rank", "7", "--word", word)
        assert code == 0 and err == ""
        assert out.strip() == f"w{word}"

    @pytest.mark.parametrize(
        "rank,word,degree,size",
        [
            (7, "121321432154321654321", 27, "1,107,568"),
            (10, "1", 18, "4,686,825"),
            # a walk of 569 steps up from s_15, on 1800-root permutations
            (30, "15,", 296, f"{math.comb(296 + 29, 29):,}"),
        ],
    )
    def test_over_the_size_cap_exits_2_at_once(self, capsys, rank, word, degree, size):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "giambelli", "--type", "B", "--rank", str(rank), "--word", word
        )
        assert code == 2 and out == ""
        assert f"reaches degree {degree} in {rank} variables, up to {size} terms" in err
        assert "at most 749,398 are supported" in err
        assert time.perf_counter() - start < 1.0


class TestJsonRoundTrip:
    def test_expansion_json_reemit_identical(self, capsys):
        code, out, _ = run(
            capsys,
            "expand",
            "--type",
            "F4",
            "--expr",
            "t1*t2*t3 + t1*t2*t4 + t1*t3*t4 + t2*t3*t4",
            "--format",
            "json",
        )
        assert code == 0
        emitted = out.strip()
        assert _json_dumps(json.loads(emitted)) == emitted

    def test_chow_json_reemit_identical(self, capsys):
        code, out, _ = run(
            capsys, "chow", "--type", "G2", "--format", "json"
        )
        assert code == 0
        emitted = out.strip()
        assert _json_dumps(json.loads(emitted)) == emitted


class TestVerifyExitCodes:
    def test_g2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "G2")
        assert code == 0
        assert "checks passed" in out

    def test_b_rank3(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "B", "--rank", "3")
        assert code == 0

    @pytest.mark.parametrize(
        "table,key,value",
        [
            ("G2_DELTA_C3", "212", 1),
            ("G2_GAMMA3", "121", 1),
            ("G2_DEGREE2", "t1", {"1": 1}),
            ("G2_ELEMENT_TABLE", 3, ["121", "121"]),
            ("G2_ACTION_TABLE", (1, "t3"), {"t3": 1}),
        ],
    )
    def test_corrupted_g2_table_fails(self, capsys, monkeypatch, table, key, value):
        import flagcalc.presentations as pres

        monkeypatch.setitem(getattr(pres, table), key, value)
        code, _, _ = run(capsys, "verify", "--type", "G2")
        assert code == 1

    @pytest.mark.parametrize(
        "table,key,value",
        [
            ("F4_DELTA_C4", "1243", -29),
            ("F4_GAMMA4", "4323", 8),
            ("F4_GIAMBELLI_IDENTITIES", "234", (0, {}, {(3, 0): 1})),
        ],
    )
    def test_corrupted_f4_table_fails(self, capsys, monkeypatch, table, key, value):
        import flagcalc.presentations as pres

        monkeypatch.setitem(getattr(pres, table), key, value)
        code, _, _ = run(capsys, "verify", "--type", "F4")
        assert code == 1

    def test_corrupted_w0_word_fails(self, capsys, monkeypatch):
        import flagcalc.presentations as pres

        monkeypatch.setattr(pres, "F4_W0_WORD", pres.F4_W0_WORD[:-1] + "3")
        code, _, _ = run(capsys, "verify", "--type", "F4")
        assert code == 1

    def test_verify_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "G2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True

    @pytest.mark.parametrize("family,rank,n_pos", [("B", 14, 196), ("B", 12, 144)])
    def test_bad_max_codim_exits_2_before_any_suite(self, capsys, family, rank, n_pos):
        # the presentation suites alone take 15 s on B14 and 2.5 s on B12
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--type", family, "--rank", str(rank), "--max-codim", "999"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: max_codim 999 is outside 1..{n_pos}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--type", "B", "--rank", "0", "--max-codim", "999"), "type B requires rank >= 2"),
            (("--type", "B,X", "--max-codim", "999"), "max_codim 999 is outside 1..9"),
            (("--type", "X,B", "--max-codim", "999"), "unknown family 'X'"),
        ],
    )
    def test_the_first_bad_input_names_the_error(self, capsys, argv, message):
        # the inputs are checked in the order the suites would run
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_comma_list_of_types(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--type", "B,G2", "--rank", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        titles = [r["title"] for r in payload["reports"]]
        assert any("B" in t for t in titles) and any("G2" in t for t in titles)


class TestChowCommand:
    def test_so7_table(self, capsys):
        code, out, _ = run(
            capsys, "chow", "--type", "B", "--rank", "3", "--variant", "so"
        )
        assert code == 0
        assert "A(SO(7))" in out
        assert "codim 3: Z/2 + Z/2" in out

    def test_spin7_json(self, capsys):
        code, out, _ = run(
            capsys,
            "chow", "--type", "B", "--rank", "3", "--variant", "spin",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["presentation"]["group"] == "Spin(7)"
        strata = {s["codim"]: s["factors"] for s in payload["strata"]}
        assert strata == {0: [0], 3: [2]}


class TestMaxCodim:
    @pytest.mark.parametrize("value", ["99", "-5", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--type", "G2"),
            ("verify", "--type", "F4"),
            ("chow", "--type", "B", "--rank", "3"),
            ("chow", "--type", "F4"),
        ],
        ids=["verify-G2", "verify-F4", "chow-B3", "chow-F4"],
    )
    def test_out_of_range_exits_2(self, capsys, argv, value):
        code, out, err = run(capsys, *argv, "--max-codim", value)
        assert code == 2
        assert out == ""
        assert f"max_codim {value} is outside" in err

    @pytest.mark.parametrize("value,codims", [("1", [0, 1]), ("9", list(range(7)))])
    def test_in_range_limits_the_strata(self, capsys, value, codims):
        # SO(7) has a nonzero stratum in every codimension up to 6 (of N = 9)
        code, out, _ = run(
            capsys,
            "chow", "--type", "B", "--rank", "3", "--variant", "so",
            "--max-codim", value, "--format", "json",
        )
        assert code == 0
        assert [s["codim"] for s in json.loads(out)["strata"]] == codims


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--type", "H1", "--expr", "w1"])
    assert exc.value.code == 2


class TestParserBuilds:
    """A known subcommand builds only its own parser, with the same bytes out."""

    @staticmethod
    def exit_output(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize(
        "extra",
        [("--help",), (), ("--type", "G2", "--bogus"), ("--rank", "x")],
        ids=["help", "missing-type", "unknown-flag", "bad-int"],
    )
    def test_single_build_prints_the_full_build_bytes(self, capsys, command, extra):
        argv = [command, *extra]
        single = self.exit_output(capsys, main, argv)
        full = self.exit_output(capsys, cli.build_parser().parse_args, argv)
        assert single == full
        assert single[0] == (0 if extra == ("--help",) else 2)
        if extra == ("--help",):
            assert single[1].startswith(f"usage: flagcalc {command} ")

    def test_known_command_builds_no_full_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("full parser built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main(["basis", "--type", "G2", "--codim", "1"]) == 0
        assert capsys.readouterr().out.split() == ["1", "2"]

    @pytest.mark.parametrize("argv", [["-h"], [], ["bogus"], ["--type", "G2"]])
    def test_other_input_goes_through_the_full_parser(self, capsys, argv):
        single = self.exit_output(capsys, main, argv)
        full = self.exit_output(capsys, cli.build_parser().parse_args, argv)
        assert single == full


def _cli_process(argv, stdout):
    """flagcalc run as its own process on this tree's sources."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.Popen(
        [sys.executable, "-m", "flagcalc.cli", *argv],
        stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


class TestClosedStdout:
    """A reader that closes stdout before the output is written gets exit 1,
    for output cut short, and nothing on stderr."""

    @pytest.mark.parametrize("argv", [
        ["basis", "--type", "G2", "--codim", "1"],  # still buffered at the flush
        ["basis", "--type", "B", "--rank", "6", "--codim", "18"],  # fails in print
        ["chow", "--type", "G2"],  # several prints
    ], ids=["small", "large", "chow"])
    def test_pipe_without_a_reader(self, argv):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _cli_process(argv, w)
        finally:
            os.close(w)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    def test_reader_that_takes_one_byte(self):
        # flagcalc basis --type B --rank 7 --codim 16 | head -c 1: 310 kB of
        # words against a 64 kB pipe, so the write fails after the read
        argv = ["basis", "--type", "B", "--rank", "7", "--codim", "16"]
        proc = _cli_process(argv, subprocess.PIPE)
        assert proc.stdout.read(1) == b"1"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")
