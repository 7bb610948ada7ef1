import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from xyyx.cli import build_parser, main, mpf_hex, parse_rational, render_fraction

ROOT = Path(__file__).resolve().parents[1]

# 10000000000000000051 * 30000000000000000041: rho would need ~10^10 steps
HARD_SEMIPRIME = "300000000000000001940000000000000002091"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, argv[0], "--json", *argv[1:])
    return code, json.loads(out)


class TestParsing:
    def test_accepts_integers_and_fractions(self):
        assert parse_rational("7") == F(7)
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("+9/12") == F(3, 4)

    def test_rejects_decimals_and_garbage(self):
        for bad in ("1.5", "2e3", "1/2/3", "", "a/b", "1/-2"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_zero_denominator_is_value_error(self):
        for bad in ("1/0", "-3/0", "0/0"):
            with pytest.raises(ValueError, match="zero denominator"):
                parse_rational(bad)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "1/0", "1", "1", "1"),
            ("family", "2", "2", "--a", "1/0"),
            ("vpv-eval", "1/0", "1/2"),
            ("transform", "--abc", "1/0", "1", "1"),
        ],
    )
    def test_zero_denominator_is_error_record(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == 1 and doc["status"] == "error"
        assert "zero denominator" in doc["message"]

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            q = F(rng.randrange(-999, 1000), rng.randrange(1, 1000))
            assert parse_rational(render_fraction(q)) == q

    def test_hex_rendering(self):
        from mpmath import mp

        assert mpf_hex(mp.mpf(16)) == "0x1p+4"
        assert mpf_hex(mp.mpf(0)) == "0x0p+0"
        assert mpf_hex(mp.mpf(-0.75)) == "-0x3p-2"


class TestEuler:
    def test_rows(self, capsys):
        code, doc = run_json(capsys, "euler", "2")
        assert code == 0
        assert doc["status"] == "ok"
        rows = doc["results"]["solutions"]
        assert rows[0] == {"n": 1, "x": "2", "y": "4", "verified": True}
        assert rows[1] == {"n": 2, "x": "9/4", "y": "27/8", "verified": True}

    def test_zero_is_error(self, capsys):
        code, doc = run_json(capsys, "euler", "0")
        assert code == 1
        assert doc["status"] == "error"
        assert "n_max" in doc["message"]


class TestFamily:
    def test_6_2(self, capsys):
        code, doc = run_json(capsys, "family", "6", "2")
        assert code == 0
        r = doc["results"]
        assert (r["x"], r["y"], r["v"], r["w"]) == ("288", "2304", "1728", "576")
        assert r["verified"] is True and r["verification"] == "exact"

    def test_1_1_trivial(self, capsys):
        _, doc = run_json(capsys, "family", "1", "1")
        r = doc["results"]
        assert (r["x"], r["y"], r["v"], r["w"]) == ("1/2", "1", "1/2", "1/2")
        assert r["trivial"] is True and r["triviality_reason"] == "contains-one"

    def test_with_explicit_a(self, capsys):
        _, doc = run_json(capsys, "family", "2", "2", "--a", "1")
        r = doc["results"]
        assert r["x"] == "1/4" and r["verified"] is True

    def test_irrational_uses_numeric_verification(self, capsys):
        _, doc = run_json(capsys, "family", "1", "1", "--a", "3")
        r = doc["results"]
        assert r["x"] == "3^(-1/2)"
        assert r["verification"] == "numeric" and r["verified"] is True

    def test_degenerate_is_error(self, capsys):
        code, doc = run_json(capsys, "family", "1", "2", "--a", "2")
        assert code == 1 and doc["status"] == "error"


class TestVerify:
    def test_true_cases(self, capsys):
        for tup in (("1/3", "1/6", "1/2", "4/3"), ("1/2", "1/3", "1/2", "4/3")):
            code, doc = run_json(capsys, "verify", *tup)
            assert code == 0 and doc["results"]["verified"] is True

    def test_false_case(self, capsys):
        code, doc = run_json(capsys, "verify", "2/1", "3/1", "2/1", "4/1")
        assert code == 0 and doc["results"]["verified"] is False

    def test_malformed_fraction(self, capsys):
        code, doc = run_json(capsys, "verify", "1.5", "2", "3", "4")
        assert code == 1 and doc["status"] == "error"

    def test_nonpositive(self, capsys):
        # "--" keeps argparse from reading the leading minus as a flag
        code, doc = run_json(capsys, "verify", "--", "-1/2", "2", "3", "4")
        assert code == 1 and doc["status"] == "error"
        assert doc["message"] == "value must be positive, got -1/2"

    def test_unfactorable_input_is_error_record(self, capsys):
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "verify", HARD_SEMIPRIME, "1", "1", HARD_SEMIPRIME)
        assert time.perf_counter() - t0 < 5.0
        assert code == 1 and doc["status"] == "error"
        assert f"no factor of {HARD_SEMIPRIME}" in doc["message"]


class TestDigits:
    def test_2_2_is_15(self, capsys):
        _, doc = run_json(capsys, "digits", "2", "2")
        assert doc["results"]["digits"] == 15
        assert doc["results"]["common_value"] == "2^48"

    def test_non_integer_family_is_error(self, capsys):
        code, doc = run_json(capsys, "digits", "1", "1")
        assert code == 1 and doc["status"] == "error"


class TestVpvEval:
    def test_emits_full_report(self, capsys):
        code, doc = run_json(
            capsys, "vpv-eval", "1/2", "3/4", "--truncation", "80",
            "--form", "reciprocal",
        )
        assert code == 0
        r = doc["results"]
        for key in (
            "product_value", "log_value", "closed_form_value", "abs_log_diff",
            "tail_bound", "truncation", "precision_bits", "convention", "form",
        ):
            assert key in r
        assert r["truncation"] == [80, 80]
        # truncation error at N = 80 is ~5e-11, so just below 16
        assert r["product_value"]["dec"].startswith("1.599999")
        assert r["product_value"]["dec"].endswith("e+1")
        assert r["product_value"]["hex"].startswith("0x")

    def test_strict_x_zero(self, capsys):
        _, doc = run_json(
            capsys, "vpv-eval", "0", "1/2", "--truncation", "10", "--convention", "strict"
        )
        # exactly one; nstr prints small exact integers without an exponent
        assert doc["results"]["product_value"]["dec"] == "1.0"

    def test_domain_violation(self, capsys):
        code, doc = run_json(capsys, "vpv-eval", "3/2", "1/2")
        assert code == 1
        assert doc["status"] == "error"
        assert "X" in doc["message"]


class TestTransform:
    def test_euler_pair(self, capsys):
        code, doc = run_json(capsys, "transform", "--n", "1", "--truncation", "150")
        assert code == 0
        r = doc["results"]
        assert r["parameters"] == {"X": "1/2", "Y": "3/4"}
        assert r["exact_closed_equality"] is True
        assert r["numeric"]["verdict"] is True

    def test_family_quad_feasible(self, capsys):
        code, doc = run_json(capsys, "transform", "--abc", "3", "2", "1", "--truncation", "200")
        assert code == 0
        r = doc["results"]
        assert r["parameters"] == {"X": "-1/2", "Y": "1/2", "V": "1/4", "W": "-1/2"}
        assert r["numeric"]["verdict"] is True

    def test_family_quad_infeasible(self, capsys):
        code, doc = run_json(capsys, "transform", "--abc", "8", "6", "2", "--truncation", "1000")
        assert code == 0
        assert doc["status"] == "warning"
        r = doc["results"]
        assert r["exact_closed_equality"] is True
        assert r["numeric"]["warning"] == "infeasible-truncation"
        assert r["numeric"]["exact_verdict"] is True

    @pytest.mark.parametrize(
        "abc, flags, message",
        [
            (("8", "6", "2"), ("--precision", "10"), "precision_bits must be >= 64"),
            (("3", "2", "1"), ("--precision", "10"), "precision_bits must be >= 64"),
            (("3", "2", "1"), ("--truncation", "-1"), "box bounds must be >= 1"),
            (("8", "6", "2"), ("--truncation", "0"), "box bounds must be >= 1"),
        ],
    )
    def test_quad_inputs_checked_before_the_fallback(self, capsys, abc, flags, message):
        # infeasible (8, 6, 2) used to skip these checks and return a warning
        code, doc = run_json(capsys, "transform", "--abc", *abc, *flags)
        assert code == 1 and doc["status"] == "error"
        assert message in doc["message"]

    def test_requires_exactly_one_source(self, capsys):
        code, doc = run_json(capsys, "transform")
        assert code == 1
        code, doc = run_json(capsys, "transform", "--n", "1", "--abc", "3", "2", "1")
        assert code == 1


class TestPointBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ("vpv-eval", "1/2", "3/4"),
            ("transform", "--n", "1"),
            ("transform", "--abc", "3", "2", "1"),
        ],
    )
    def test_over_budget_box_is_refused_at_once(self, capsys, argv):
        t0 = time.perf_counter()
        code, doc = run_json(capsys, *argv, "--truncation", "100000")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["status"] == "error"
        assert "lattice points" in doc["message"]
        assert "point budget of 10000000" in doc["message"]

    def test_point_budget_is_not_a_flag(self, capsys):
        # the budget is fixed at 10^7 for every product evaluation
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--n", "1", "--point-budget", "1000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --point-budget" in capsys.readouterr().err


class TestSearch:
    def test_6_4(self, capsys):
        _, doc = run_json(capsys, "search", "6", "4")
        rows = doc["results"]["solutions"]
        assert [(r["b"], r["c"]) for r in rows] == [(2, 2), (4, 4), (6, 2), (6, 3)]
        assert all(r["verified"] for r in rows)

    def test_empty(self, capsys):
        _, doc = run_json(capsys, "search", "1", "1")
        assert doc["results"]["solutions"] == []


class TestOutputModes:
    def test_schema_keys(self, capsys):
        _, doc = run_json(capsys, "euler", "1")
        assert set(doc) == {"command", "inputs", "results", "status", "message"}

    def test_human_mode_carries_same_numbers(self, capsys):
        _, doc = run_json(capsys, "vpv-eval", "1/10", "1/5", "--truncation", "40")
        code, text = run(capsys, "vpv-eval", "1/10", "1/5", "--truncation", "40")
        assert code == 0
        assert doc["results"]["product_value"]["dec"] in text
        assert doc["results"]["product_value"]["hex"] in text
        assert doc["results"]["tail_bound"]["dec"] in text

    def test_env_precision_override(self, capsys, monkeypatch):
        monkeypatch.setenv("VPV_PRECISION_BITS", "128")
        _, doc = run_json(capsys, "vpv-eval", "1/10", "1/5", "--truncation", "20")
        assert doc["results"]["precision_bits"] == 128

    def test_bad_env_precision_is_error_record(self, capsys, monkeypatch):
        monkeypatch.setenv("VPV_PRECISION_BITS", "abc")
        code, doc = run_json(capsys, "vpv-eval", "1/10", "1/5", "--truncation", "20")
        assert code == 1 and doc["status"] == "error"
        assert "VPV_PRECISION_BITS" in doc["message"]

    def test_exact_commands_do_not_read_env_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("VPV_PRECISION_BITS", "abc")
        for argv in (("euler", "2"), ("verify", "2", "4", "4", "2"), ("search", "2", "2")):
            code, doc = run_json(capsys, *argv)
            assert code == 0 and doc["status"] == "ok"

    def test_env_precision_read_on_every_call(self, capsys, monkeypatch):
        # the parser is built once; the environment must not be captured in it
        for bits in (128, 192):
            monkeypatch.setenv("VPV_PRECISION_BITS", str(bits))
            _, doc = run_json(capsys, "vpv-eval", "1/10", "1/5", "--truncation", "20")
            assert doc["results"]["precision_bits"] == bits

    def test_closed_stdout_ends_without_traceback(self):
        # over 1 MB of output, more than any default pipe buffer holds
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "xyyx", "search", "200", "200"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline().startswith(b"command: search")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("VPV_PRECISION_BITS", "128")
        _, doc = run_json(
            capsys, "vpv-eval", "1/10", "1/5", "--truncation", "20", "--precision", "192"
        )
        assert doc["results"]["precision_bits"] == 192


EXACT_COMMANDS = [("euler", "2"), ("verify", "1", "1", "1", "1"), ("search", "2", "2")]
NUMERIC_COMMANDS = [("family", "2", "2"), ("digits", "2", "2")]
PRECISION = ("--precision", "64")
LATTICE = [("--truncation", "5"), ("--convention", "axis")]


class TestSubcommandFlags:
    @pytest.mark.parametrize(
        "argv",
        [cmd + flag for cmd in EXACT_COMMANDS for flag in [PRECISION, *LATTICE]]
        + [cmd + flag for cmd in NUMERIC_COMMANDS for flag in LATTICE],
    )
    def test_flag_not_read_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("vpv-eval", "1/10", "1/5"), ("transform", "--n", "1")])
    def test_product_commands_take_all_three(self, capsys, argv):
        code, doc = run_json(
            capsys, *argv, "--precision", "128", "--truncation", "20", "--convention", "axis"
        )
        assert code == 0 and doc["status"] == "ok"
        assert doc["inputs"]["precision_bits"] == 128
        assert doc["inputs"]["truncation"] == 20
        assert doc["inputs"]["convention"] == "axis"

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


def readme_flags() -> dict[str, set[str]]:
    """The --flags of each subcommand, as the README "Command line" table lists them."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    table = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        row = re.fullmatch(r"\| (.*?) \| (.*) \|", line)
        if row and "`" in row[1]:
            for name in re.findall(r"`([a-z-]+)`", row[1]):
                table[name] = set(re.findall(r"--[a-z][a-z-]*", row[2]))
    return table


def parser_flags() -> dict[str, set[str]]:
    """The option strings of each subparser of build_parser(), help excluded."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_readme_flag_table_matches_the_parser():
    assert readme_flags() == parser_flags()
