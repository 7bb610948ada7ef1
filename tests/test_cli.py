import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xyyx.cli import _render, build_parser, emit, main, mpf_hex, parse_rational, render_real
from xyyx.errors import OversizedValue
from xyyx.exact import PrimePowerProduct, digit_count
from xyyx.solutions import general_solution, rational_family, search_integer_solutions

ROOT = Path(__file__).resolve().parents[1]

# 10000000000000000051 * 30000000000000000041: rho would need ~10^10 steps
HARD_SEMIPRIME = "300000000000000001940000000000000002091"

BIG = "1" + "0" * 4300  # 10^4300, one digit past the default int-to-str limit
MALFORMED = "1" * 5000 + "x"  # named by its length, not echoed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, argv[0], "--json", *argv[1:])
    return code, json.loads(out)


def child_env() -> dict:
    """The environment of a fresh interpreter that imports xyyx from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_child(script: str, *args: str) -> subprocess.CompletedProcess:
    """python -c script in a fresh interpreter; the timeout fails a hang instead of waiting on it."""
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=60, env=child_env()
    )


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
            assert parse_rational(str(q)) == q

    def test_hex_rendering(self):
        from mpmath import mp

        assert mpf_hex(mp.mpf(16)) == "0x1p+4"
        assert mpf_hex(mp.mpf(0)) == "0x0p+0"
        assert mpf_hex(mp.mpf(-0.75)) == "-0x3p-2"

    @pytest.mark.parametrize("bits", [64, 256, 1024, 2048])
    def test_decimal_rendering_is_mpmath_nstr(self, bits):
        # values below 2^3500 with a wide integer part are cut by 10^k before
        # mp.nstr; the text must not change, at the default digit limit
        from mpmath import mp

        rng = random.Random(bits)
        digits = max(8, int(bits * 0.30103))
        for e in range(-4000, 4001, 25):
            for man in (rng.getrandbits(bits + 32) | 1, 10 ** (digits + rng.randint(0, 4)) - rng.randint(0, 3)):
                with mp.workprec(bits + 32):
                    x = mp.ldexp(mp.mpf(man), e - man.bit_length()) * rng.choice((1, -1))
                want = mp.nstr(x, digits, min_fixed=1, max_fixed=1)
                assert render_real(x, bits)["dec"] == want, (bits, e, man)
        for x in (mp.mpf(0), mp.inf, -mp.inf, mp.nan):
            assert render_real(x, bits)["dec"] == mp.nstr(x, digits, min_fixed=1, max_fixed=1)


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

    @pytest.mark.parametrize("argv", [("euler", "3000"), ("transform", "--n", "100000")])
    def test_index_too_large_to_print_is_refused_at_once(self, argv):
        script = (
            "import sys, time\n"
            "from xyyx.cli import main\n"
            "t0 = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - t0, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = run_child(script, argv[0], "--json", *argv[1:])
        assert float(proc.stderr) < 1.0
        doc = json.loads(proc.stdout)
        assert proc.returncode == 1 and doc["status"] == "error"
        assert doc["message"].startswith(f"n = {argv[-1]} is too large")
        assert f"more than {sys.get_int_max_str_digits()} decimal digits" in doc["message"]


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

    def test_nothing_is_multiplied_back_out(self, capsys, monkeypatch):
        # the tuple keeps the parsed rationals as its values
        calls = []
        to_fraction = PrimePowerProduct.to_fraction
        monkeypatch.setattr(PrimePowerProduct, "to_fraction", lambda u: calls.append(u) or to_fraction(u))
        code, doc = run_json(capsys, "verify", "1/3", "1/6", "1/2", "4/3")
        assert code == 0 and doc["results"]["verified"] is True
        assert calls == []

    def test_runs_as_a_module(self):
        done = subprocess.run(
            [sys.executable, "-m", "xyyx", "verify", "1/3", "1/6", "1/2", "4/3", "--json"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["results"]["verified"] is True

    def test_false_case(self, capsys):
        code, doc = run_json(capsys, "verify", "2/1", "3/1", "2/1", "4/1")
        assert code == 0 and doc["results"]["verified"] is False

    def test_malformed_fraction(self, capsys):
        code, doc = run_json(capsys, "verify", "1.5", "2", "3", "4")
        assert code == 1 and doc["status"] == "error"
        assert doc["message"] == "not a rational of the form p/q or p: '1.5'"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", MALFORMED, "1", "1", "1"), "not a rational of the form p/q or p: a value of 5001 characters"),
            (("vpv-eval", "1/2", MALFORMED), "not a rational of the form p/q or p: a value of 5001 characters"),
            (("family", "2", "2", "--a", MALFORMED), "not a rational of the form p/q or p: a value of 5001 characters"),
            (("transform", "--abc", "1", MALFORMED, "1"), "not a rational of the form p/q or p: a value of 5001 characters"),
            # each term is within the digit limit, the whole text is not
            (("verify", "0" * 3000 + "/" + "0" * 3000, "1", "1", "1"), "zero denominator in a value of 6001 characters"),
        ],
        ids=["verify", "vpv-eval", "family", "transform", "zero-denominator"],
    )
    def test_long_malformed_rational_is_named_by_its_length(self, capsys, argv, message):
        code, out = run(capsys, argv[0], "--json", *argv[1:])
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "error"
        assert doc["message"] == message
        assert len(doc["message"]) < 200 and len(out) < 1000

    def test_nonpositive(self, capsys):
        # "--" keeps argparse from reading the leading minus as a flag
        code, doc = run_json(capsys, "verify", "--", "-1/2", "2", "3", "4")
        assert code == 1 and doc["status"] == "error"
        assert doc["message"] == "value must be positive, got -1/2"

    def test_unfactorable_input_is_error_record(self, capsys):
        # verify factors nothing, so the semiprime rho cannot split gets a verdict;
        # family --a still factors a, and refuses it
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "verify", HARD_SEMIPRIME, "1", "1", HARD_SEMIPRIME)
        assert time.perf_counter() - t0 < 5.0
        assert code == 0 and doc["status"] == "ok"
        assert doc["results"]["verified"] is True
        t0 = time.perf_counter()
        code, doc = run_json(capsys, "family", "1", "1", "--a", HARD_SEMIPRIME)
        assert time.perf_counter() - t0 < 5.0
        assert code == 1 and doc["status"] == "error"
        assert f"no factor of {HARD_SEMIPRIME}" in doc["message"]

    def test_prime_powers_above_the_trial_limit_factor_at_once(self):
        # 1000003^200 took 22 s when rho split off one power at a time, each
        # after a primality test on a 4000-bit cofactor; 4099^1368 * 4111 and
        # a product of 200 primes above 7 * 10^5 take seconds when is_prime
        # runs on their thousands of bits before trial division removes them
        script = (
            "import contextlib, io, json, math, time\n"
            "from xyyx.cli import main\n"
            "from xyyx.exact import factorize, is_prime\n"
            "band = math.prod([p for p in range(700001, 703000, 2) if is_prime(p)][:200])\n"
            "out = []\n"
            "for m in (1000003**200, 4099**1369 * 2, (4099**5 * 4111)**7, 4099**1368 * 4111, band):\n"
            "    t0 = time.perf_counter()\n"
            "    pairs = factorize(m)\n"
            "    out.append([time.perf_counter() - t0, pairs])\n"
            "x = str(1000003**200)\n"
            "t0 = time.perf_counter()\n"
            "with contextlib.redirect_stdout(io.StringIO()) as record:\n"
            "    main(['verify', x, '1', '1', x, '--json'])\n"
            "out.append([time.perf_counter() - t0, json.loads(record.getvalue())['results']])\n"
            "print(json.dumps(out))\n"
        )
        proc = run_child(script)
        assert proc.returncode == 0, proc.stderr
        times, pairs = zip(*json.loads(proc.stdout))
        assert pairs[0] == [[1000003, 200]]
        assert pairs[1] == [[2, 1], [4099, 1369]]
        assert pairs[2] == [[4099, 35], [4111, 7]]
        assert pairs[3] == [[4099, 1368], [4111, 1]]
        assert len(pairs[4]) == 200 and all(e == 1 and 700001 <= p < 703000 for p, e in pairs[4])
        assert pairs[5]["verified"] is True
        assert max(times) < 5.0, times


class TestDigits:
    def test_2_2_is_15(self, capsys):
        _, doc = run_json(capsys, "digits", "2", "2")
        assert doc["results"]["digits"] == 15
        assert doc["results"]["common_value"] == "2^48"

    def test_non_integer_family_is_error(self, capsys):
        code, doc = run_json(capsys, "digits", "1", "1")
        assert code == 1 and doc["status"] == "error"

    @pytest.mark.parametrize(
        "b,c,bits",
        [(26, 26, 256), (30, 30, 256), (60, 60, 256), (20, 20, 64), (500, 500, 256)],
    )
    def test_leading_digits_of_large_values(self, capsys, b, c, bits):
        # log10 of the common value x^y y^x has up to about 8980 integer bits
        # here (b = c = 500); the reference takes it from the integers
        # y = b^c c^b, x = y/(b+c) at 10000 bits, over 1000 below the point
        from mpmath import mp

        y = b**c * c**b
        x = y // (b + c)
        with mp.workprec(10000):
            log10 = y * mp.log10(x) + x * mp.log10(y)
            whole = int(mp.floor(log10))
            lead = mp.power(10, log10 - whole)
            expected = mp.nstr(lead, 6), f"{mp.nstr(lead, 4)}e+{whole}"
        _, doc = run_json(capsys, "digits", str(b), str(c), "--precision", str(bits))
        res = doc["results"]
        assert res["digits"] == whole + 1
        assert (res["leading_digits"], res["scientific"]) == expected


class TestOversizedValues:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (("family", "1000", "1000"), "results.x"),
            (("digits", "1000", "1000"), "results.digits"),
            # a parameter or an argument past the limit, named without the interpreter's message
            (("transform", "--abc", "10001/10000", "1", "1"), "|X| must be < 1, got X = a value that"),
            (("verify", "9" * 5001, "1", "1", "1"), "the numerator of a rational argument"),
            (("family", "2", "2", "--a", "1/" + "9" * 5001), "the denominator of a rational argument"),
            # an integer argument past the limit, which int() refuses, is named too
            (("euler", BIG), "the argument n_max"),
            (("vpv-eval", "1/2", "3/4", "--truncation", BIG), "the argument --truncation"),
            (("transform", "--n", BIG), "the argument --n"),
            (("search", "60", "-" + BIG), "the argument c_max"),
            (("digits", BIG, "2"), "the argument b"),
            (("family", "2", "2", "--precision", BIG), "the argument --precision"),
        ],
    )
    def test_record_names_the_field(self, capsys, argv, field):
        code, doc = run_json(capsys, *argv)
        assert code == 1 and doc["status"] == "error"
        assert doc["message"] == f"{field} has more than {sys.get_int_max_str_digits()} decimal digits"
        assert "set_int_max_str_digits" not in doc["message"]

    def test_integer_arguments_at_a_lower_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, doc = run_json(capsys, "family", "1" + "0" * 4299, "1" + "0" * 4299, "--a", "1/2")
            assert code == 1 and doc["message"] == "the argument b has more than 640 decimal digits"
            code, doc = run_json(capsys, "euler", "1" + "0" * 639)
            assert code == 1 and doc["message"].startswith("n = 1" + "0" * 639 + " is too large")
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("command", [("vpv-eval", "1/2", "3/4"), ("digits", "2", "2"), ("transform", "--n", "1")])
    def test_env_precision_is_named_as_the_flag_is(self, capsys, monkeypatch, command):
        # it was read by int(), which called it not an integer and echoed all 4301 digits
        monkeypatch.setenv("VPV_PRECISION_BITS", BIG)
        code, doc = run_json(capsys, *command)
        assert code == 1 and doc["message"] == "VPV_PRECISION_BITS has more than 4300 decimal digits"
        monkeypatch.setenv("VPV_PRECISION_BITS", "abc")
        code, doc = run_json(capsys, *command)
        assert code == 1 and doc["message"] == "VPV_PRECISION_BITS must be an integer, got 'abc'"
        monkeypatch.setenv("VPV_PRECISION_BITS", MALFORMED)
        code, doc = run_json(capsys, *command)
        assert code == 1 and doc["message"] == "VPV_PRECISION_BITS must be an integer, got a value of 5001 characters"

    def test_env_precision_at_a_lower_limit(self, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            monkeypatch.setenv("VPV_PRECISION_BITS", "1" + "0" * 640)
            code, doc = run_json(capsys, "vpv-eval", "1/2", "3/4")
            assert code == 1 and doc["message"] == "VPV_PRECISION_BITS has more than 640 decimal digits"
            monkeypatch.setenv("VPV_PRECISION_BITS", "+000_128")  # within the limit, int() reads it
            code, doc = run_json(capsys, "vpv-eval", "1/2", "3/4", "--truncation", "5")
            assert code == 0 and doc["inputs"]["precision_bits"] == 128
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "argv",
        [
            ("euler", "x"),
            ("euler", BIG + "x"),
            ("vpv-eval", "1/2", "3/4", "--truncation", "1.5"),
            ("euler", MALFORMED),
            ("transform", "--n", MALFORMED),
        ],
    )
    def test_other_malformed_integers_stay_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid int value" in err
        value = argv[-1]
        if len(value) > sys.get_int_max_str_digits():
            assert err.endswith(f"invalid int value: a value of {len(value)} characters\n")
            assert len(err.splitlines()[-1]) < 200
        else:
            assert err.endswith(f"invalid int value: {value!r}\n")

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("digits", "20000", "20000"), "results.digits"),
            (("digits", "60000", "60000"), "results.digits"),
            (("family", "2000000", "2000000"), "results.x"),
            (("family", "200000", "200000", "--a", "400000"), "results.x"),
            (("transform", "--abc", "3000001/1000000", "2", "2"), "results.parameters.X"),
            (("transform", "--abc", "300001/100000", "2", "2"), "results.parameters.X"),
            (("transform", "--abc", "1000001/1000000", "1", "1"), "|X| must be < 1, got X = a value that"),
        ],
    )
    def test_oversized_family_is_refused_at_once(self, argv, field):
        # without the bounds, digits 20000 20000 takes 40 s in digit_count's
        # logs, family 2000000 2000000 80 s multiplying its members out and
        # each transform over a minute doing the same
        script = (
            "import sys, time\n"
            "sys.set_int_max_str_digits(4300)\n"
            "from xyyx.cli import main\n"
            "t0 = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - t0, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = run_child(script, argv[0], "--json", *argv[1:])
        assert float(proc.stderr) < 1.0
        doc = json.loads(proc.stdout)
        assert proc.returncode == 1 and doc["status"] == "error"
        assert doc["message"] == f"{field} has more than 4300 decimal digits"

    def test_digits_same_record_as_the_full_computation(self, capsys, monkeypatch):
        # at the smallest digit limit the digit counts pass it near b = c = 147;
        # an early refusal names what digit_count and rendering would
        from xyyx import cli

        built = []
        monkeypatch.setattr(cli, "digit_count", lambda u: built.append(u) or digit_count(u))
        pairs = [(b, c) for b in range(96, 320, 16) for c in range(96, 320, 16)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            outcomes = Counter()
            for b, c in pairs:
                built.clear()
                code, doc = run_json(capsys, "digits", str(b), str(c))
                t = rational_family(b, c)
                if any(e < 0 for _, e in t.x.factors):
                    assert code == 1 and "is not integer-valued" in doc["message"], (b, c)
                    continue
                x, y, _, _ = t.as_fractions()
                digits = digit_count(t.x**y * t.y**x)
                try:
                    expected = {"digits": int(str(digits))}
                except ValueError:
                    expected = {"message": "results.digits has more than 640 decimal digits"}
                got = {key: doc["results"].get(key, doc["message"]) for key in expected}
                assert got == expected and code == ("message" in expected), (b, c)
                outcomes[code, bool(built)] += 1
        finally:
            sys.set_int_max_str_digits(limit)
        # answered, refused after the full computation and refused at once
        assert outcomes[0, True] and outcomes[1, True] and outcomes[1, False], outcomes

    def test_family_same_record_as_rendering_every_member(self, capsys, monkeypatch):
        # at the smallest digit limit, x passes it near b = c = 147 for a = b + c;
        # a = b + c - 2 gives x = a / (b^c c^b) and a = b + c - 1/2 squares x
        from xyyx import cli

        verify = cli.verify_product_equation
        verified = []
        monkeypatch.setattr(cli, "verify_product_equation", lambda t: verified.append(t) or verify(t))
        argvs = []
        for b in range(40, 300, 20):
            for c in range(40, 300, 20):
                argvs.append((b, c, None))
                argvs += [(b, c, a) for a in (F(b + c), F(b + c - 2), b + c - F(1, 2))]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            outcomes = Counter()
            for b, c, a in argvs:
                verified.clear()
                flags = [] if a is None else ["--a", str(a)]
                code, doc = run_json(capsys, "family", str(b), str(c), *flags)
                t = rational_family(b, c) if a is None else general_solution(a, F(b), F(c))
                members = {name: u.to_fraction() for name, u in zip("xyvw", t.values())}
                try:
                    _render({"results": members}, None)
                    assert code == 0 and doc["results"]["x"] == str(members["x"]), (b, c, a)
                except OversizedValue as exc:
                    assert code == 1 and doc["message"] == str(exc), (b, c, a)
                outcomes[code, bool(verified)] += 1
        finally:
            sys.set_int_max_str_digits(limit)
        # answered, and refused at once: never after the members were verified
        assert outcomes[0, True] and not outcomes[1, True] and outcomes[1, False], outcomes

    def test_transform_same_record_as_the_full_computation(self, capsys, monkeypatch):
        # at the smallest digit limit, with members from 2^1000 to 2^3900 in
        # size and on both sides of 1/2: b = 1 and a = c +- 1/k give
        # x ~ exp(-1/c) and w = c x, and a = b + c gives integers
        from xyyx import transforms
        from xyyx.solutions import SolutionTuple

        as_fractions = SolutionTuple.as_fractions
        built = []
        monkeypatch.setattr(SolutionTuple, "as_fractions", lambda t: built.append(t) or as_fractions(t))
        abcs = [
            (c + sign * F(1, k), F(1), c)
            for c in (F(1), F(6, 5), F(3, 2), F(2))
            for sign in (1, -1)
            for k in (150, 200, 230, 250, 256, 280, 400)
        ]
        abcs += [(F(b + c), F(b), F(c)) for b, c in ((110, 110), (130, 130), (150, 160), (190, 210), (200, 200))]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            outcomes = Counter()
            for a, b, c in abcs:
                argv = ("transform", "--abc", str(a), str(b), str(c), "--truncation", "20")
                built.clear()
                code, out = run(capsys, *argv)
                early = not built
                with monkeypatch.context() as full:
                    full.setattr(transforms, "_refuse_early", lambda t, digits: None)
                    assert run(capsys, *argv) == (code, out), (a, b, c)
                message = out.splitlines()[1] if code else "answered"
                outcomes[re.sub(r"\d+", "N", message), early] += 1
        finally:
            sys.set_int_max_str_digits(limit)
        # answered; refused on the domain with X shown, and with X too long to
        # show; refused as too long to print, always at once
        domain = "message: |X| must be < N, got X = "
        oversized = "message: results.parameters.X has more than N decimal digits"
        assert outcomes["answered", False], outcomes
        assert outcomes[domain + "-N/N", True], outcomes
        assert outcomes[domain + "a value that has more than N decimal digits", True], outcomes
        assert outcomes[oversized, True] and not outcomes[oversized, False], outcomes

    def test_fallback_bound_near_2_pow_3000_prints_at_the_smallest_limit(self, capsys):
        # combined_bound is about 4e896: mpmath prints an mpf below 2^3500 from
        # its whole integer part, which the limit of 640 digits refused
        argv = ("transform", "--abc", "220", "110", "110", "--truncation", "20")
        code, doc = run_json(capsys, *argv)
        assert code == 0 and doc["status"] == "warning"
        bound = doc["results"]["numeric"]["combined_bound"]
        assert bound["dec"].endswith("e+896")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run_json(capsys, *argv) == (code, doc)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_render_tries_ints(self):
        limit = sys.get_int_max_str_digits()
        assert json.loads(_render({"results": {"n": 10 ** (limit - 1)}}, None)) == {"results": {"n": 10 ** (limit - 1)}}
        with pytest.raises(OversizedValue, match=rf"^results\.rows\[1\]\.n has more than {limit} "):
            _render({"results": {"rows": [{"n": 1}, {"n": 10**limit}]}}, None)


class TestDigitLimitOff:
    """With the int-to-str limit switched off (0), every refusal keys on its default of 4300 digits."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("euler", "100000"), "n = 100000 is too large: the numerator of y = ((n+1)/n)^(n+1) has more than"),
            (("search", "3000", "3000"), "results.solutions[526].x has more than"),
            (("transform", "--abc", "3000001/1000000", "2", "2"), "results.parameters.X has more than"),
            # int() would read these, so the digit limit's default decides
            (("euler", BIG), "the argument n_max has more than"),
            (("transform", "--n", BIG), "the argument --n has more than"),
            (("vpv-eval", "1/2", "3/4", "--truncation", BIG), "the argument --truncation has more than"),
        ],
    )
    def test_refused_at_once(self, argv, message):
        # each ran on, building values of millions of digits, until a timeout stopped it
        script = (
            "import sys, time\n"
            "assert sys.get_int_max_str_digits() == 0\n"
            "from xyyx.cli import main\n"
            "t0 = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(time.perf_counter() - t0, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, argv[0], "--json", *argv[1:]], capture_output=True, text=True,
            timeout=20, env={**child_env(), "PYTHONINTMAXSTRDIGITS": "0"},
        )
        assert float(proc.stderr) < 1.0
        doc = json.loads(proc.stdout)
        assert proc.returncode == 1 and doc["status"] == "error"
        assert doc["message"] == f"{message} 4300 decimal digits"

    @pytest.mark.parametrize(
        "argv",
        [
            ("euler", "20"),
            ("euler", "1370"),
            ("search", "60", "60"),
            ("search", "1000", "1000"),
            ("family", "750", "750"),  # x has 4310 digits, past what its bounds can tell
            ("family", "2000000", "2000000"),
            ("family", "2", "2", "--a", "1/" + "9" * 4301),
            ("digits", "1000", "1000"),
            ("verify", "9" * 4301, "1", "1", "1"),
            ("transform", "--abc", "10001/10000", "1", "1"),
            ("transform", "--abc", "3000001/1000000", "2", "2", "--truncation", "3000"),
            ("vpv-eval", "1/" + "7" * 4301, "1/2", "--truncation", "3"),
            # b = c = 10^4299: x prints exponent terms of 4301 digits, and the
            # quad's error names its irrational members instead of printing them
            ("family", "1" + "0" * 4299, "1" + "0" * 4299, "--a", "1/2"),
            ("transform", "--abc", "1/2", "1" + "0" * 4299, "1" + "0" * 4299),
            ("euler", BIG),
            ("search", BIG, BIG),
            ("vpv-eval", "1/2", "3/4", "--truncation", BIG),
        ],
    )
    def test_same_record_as_at_the_default_limit(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        records = []
        try:
            for digits in (4300, 0):
                sys.set_int_max_str_digits(digits)
                records.append([run(capsys, argv[0], *flag, *argv[1:]) for flag in ((), ("--json",))])
        finally:
            sys.set_int_max_str_digits(limit)
        assert records[0] == records[1]

    def test_env_precision_is_named_at_the_default(self, capsys, monkeypatch):
        # int() reads all 4301 digits with the limit off, and the precision
        # ceiling's message echoed them
        monkeypatch.setenv("VPV_PRECISION_BITS", BIG)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            records = [run(capsys, "vpv-eval", *flag, "1/2", "3/4") for flag in ((), ("--json",))]
        finally:
            sys.set_int_max_str_digits(limit)
        message = "VPV_PRECISION_BITS has more than 4300 decimal digits"
        assert records[0] == (1, f"command: vpv-eval  [error]\nmessage: {message}\n")
        assert records[1][0] == 1 and json.loads(records[1][1])["message"] == message


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

    def test_y_within_2_pow_minus_128_of_one(self, capsys):
        Y = f"{3**100 - 1}/{3**100}"
        code, doc = run_json(
            capsys, "vpv-eval", "0", Y, "--truncation", "5", "--precision", "64"
        )
        assert code == 0 and doc["status"] == "ok", doc["message"]
        assert doc["results"]["tail_bound"]["dec"].endswith("e+46")

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
            # X past the digit limit: the record the full computation gives
            (("30001/10000", "2", "2"), ("--truncation", "0"), "box bounds must be >= 1"),
            # x = 1/2: the box is named before X = -1 leaves (-1, 1)
            (("2", "1", "1"), ("--truncation", "0"), "box bounds must be >= 1"),
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
            ("transform", "--n", "0", "--truncation", "0"),
            ("vpv-eval", "1/2", "3/4", "--truncation", "-4056"),
            ("vpv-eval", "1/2", "3/4", "--truncation", "-5000"),
            ("vpv-eval", "3/2", "3/4", "--truncation", "-4056"),
            ("vpv-eval", "3/2", "3/4", "--truncation", "-5000"),
        ],
    )
    def test_a_box_below_1_is_named_first(self, capsys, argv):
        # before the index n, the domain of X and the point budget: a box of
        # -4056 x -4056 would be estimated at more than 10^7 points
        code, doc = run_json(capsys, *argv)
        assert code == 1 and doc["status"] == "error"
        assert "box bounds must be >= 1" in doc["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("vpv-eval", "1/2", "3/4"),
            ("transform", "--n", "1"),
            ("transform", "--abc", "3", "2", "1"),
            # members near exp(-1/2) of 24000 bits: X, too long to print, is named before the box is estimated
            ("transform", "--abc", "4001/2000", "1", "2"),
        ],
    )
    def test_over_budget_box_is_refused_at_once(self, capsys, argv):
        t0 = time.perf_counter()
        code, doc = run_json(capsys, *argv, "--truncation", "100000")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and doc["status"] == "error"
        if "4001/2000" in argv:
            limit = sys.get_int_max_str_digits()
            assert doc["message"] == f"results.parameters.X has more than {limit} decimal digits"
        else:
            assert "lattice points" in doc["message"]
            assert "point budget of 10000000" in doc["message"]

    def test_oversized_parameter_is_named_before_the_box_is_estimated(self):
        # members of millions of digits and a box over the budget: the size
        # error comes at once, with no member multiplied out
        script = (
            "import sys, time; from xyyx.cli import main; t0 = time.perf_counter(); "
            "code = main(sys.argv[1:]); print(code, time.perf_counter() - t0, file=sys.stderr)"
        )
        argv = ("transform", "--abc", "3000001/1000000", "2", "2", "--truncation", "3000", "--json")
        done = run_child(script, *argv)
        code, seconds = done.stderr.split()
        doc = json.loads(done.stdout)
        assert code == "1" and doc["status"] == "error"
        assert doc["message"] == f"results.parameters.X has more than {sys.get_int_max_str_digits()} decimal digits"
        assert float(seconds) < 1.0

    def test_point_budget_is_not_a_flag(self, capsys):
        # the budget is fixed at 10^7 for every product evaluation
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--n", "1", "--point-budget", "1000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --point-budget" in capsys.readouterr().err


class TestPrecisionCeiling:
    @pytest.mark.parametrize(
        "argv",
        [
            ("vpv-eval", "1/2", "3/4", "--truncation", "2"),
            # an irrational tuple, so the precision reaches numeric_verify
            ("family", "4", "5", "--a", "26/3"),
            ("family", "4", "5"),
            ("digits", "6", "2"),
            ("transform", "--n", "1", "--truncation", "2"),
        ],
    )
    def test_above_the_ceiling_is_refused_at_once(self, capsys, monkeypatch, argv):
        # one bit above the ceiling from the environment; the flag wins over it
        monkeypatch.setenv("VPV_PRECISION_BITS", "65537")
        for flags in ((), ("--precision", "10000000")):
            t0 = time.perf_counter()
            code, doc = run_json(capsys, *argv, *flags)
            assert time.perf_counter() - t0 < 1.0
            assert code == 1 and doc["status"] == "error"
            assert "precision_bits must be <= 65536" in doc["message"]

    def test_ceiling_itself_is_accepted(self, capsys):
        code, doc = run_json(
            capsys, "vpv-eval", "1/2", "3/4", "--truncation", "2", "--precision", "65536"
        )
        assert code == 0 and doc["status"] == "ok"
        assert doc["inputs"]["precision_bits"] == 65536


class TestSearch:
    def test_6_4(self, capsys):
        _, doc = run_json(capsys, "search", "6", "4")
        rows = doc["results"]["solutions"]
        assert [(r["b"], r["c"]) for r in rows] == [(2, 2), (4, 4), (6, 2), (6, 3)]
        assert all(r["verified"] for r in rows)

    def test_empty(self, capsys):
        _, doc = run_json(capsys, "search", "1", "1")
        assert doc["results"]["solutions"] == []

    def test_oversized_row_is_refused_before_any_tuple_is_built(self):
        script = (
            "import sys, time\n"
            "sys.set_int_max_str_digits(4300)\n"
            "from xyyx.cli import main\n"
            "t0 = time.perf_counter()\n"
            "code = main(['search', '1000', '1000', '--json'])\n"
            "print(time.perf_counter() - t0, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = run_child(script)
        assert float(proc.stderr) < 1.0
        doc = json.loads(proc.stdout)
        assert proc.returncode == 1 and doc["status"] == "error"
        assert doc["message"] == "results.solutions[5005].x has more than 4300 decimal digits"

    @pytest.mark.parametrize("bounds", [("100000000", "1"), ("1", "10000001"), ("3163", "3163")])
    def test_box_over_the_limit_is_refused_at_once(self, bounds):
        # without the limit, 100000000 x 1 scans 10^8 pairs twice, for minutes
        script = (
            "import sys, time\n"
            "from xyyx.cli import main\n"
            "t0 = time.perf_counter()\n"
            "code = main(['search', *sys.argv[1:], '--json'])\n"
            "print(time.perf_counter() - t0, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = run_child(script, *bounds)
        assert float(proc.stderr) < 1.0
        doc = json.loads(proc.stdout)
        assert proc.returncode == 1 and doc["status"] == "error"
        b_max, c_max = map(int, bounds)
        assert doc["message"] == (
            f"the {b_max} x {c_max} search box has {b_max * c_max} (b, c) pairs, "
            "more than the limit of 10000000"
        )

    @pytest.mark.parametrize("bounds", [("300", "300"), ("12", "40"), ("100", "100")])
    def test_same_record_as_rendering_every_row(self, capsys, bounds):
        # at the smallest digit limit, the early refusal names the field that
        # rendering the whole box would fail on, and a box within it is as before
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, doc = run_json(capsys, "search", *bounds)
            rows = [
                {name: u.to_fraction() for name, u in zip("xyvw", t.values())}
                for t in search_integer_solutions(*map(int, bounds))
            ]
            try:
                _render({"results": {"solutions": rows}}, None)
                rendered = None
            except OversizedValue as exc:
                rendered = str(exc)
        finally:
            sys.set_int_max_str_digits(limit)
        if rendered is None:
            assert code == 0 and len(doc["results"]["solutions"]) == len(rows)
        else:
            assert code == 1 and doc["message"] == rendered


def named_lines(path: str, value):
    """The "name = value" lines of a --json record's value at path, for the plain mode."""
    if isinstance(value, dict) and set(value) == {"dec", "hex"}:
        yield f"{path} = {value['dec']}  (hex {value['hex']})"
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from named_lines(f"{path}.{k}" if path else k, v)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, v in enumerate(value):
            yield from named_lines(f"{path}[{i}]", v)
    else:
        yield f"{path} = {value}"


def readme_examples() -> list[list[str]]:
    """The argv of every `xyyx ...` line in the README's "Command line" block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("xyyx ")]


JSON_RECORDS = readme_examples() + [
    ["search", "60", "60"],
    *(["transform", "--abc", *map(str, abc)] for abc in ((5, 3, 2), (6, 4, 2), (6, 3, 3), (7, 4, 3), (7, 5, 2), (9, 6, 3))),
    ["transform", "--abc", "4", "2", "2", "--truncation", "300"],
    ["vpv-eval", "--truncation", "30", "--convention", "strict", "--", "-1/3", "2/7"],
    ["search", "1000", "1000"],
    ["verify", "1/0", "1", "1", "1"],
    ["euler", "0"],
    ["transform", "--n", "1", "--truncation", "0"],
]

JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", ""])
)
JSON_RECORD = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text() | st.sampled_from(['"', "\n", "\u00e9"]), children, max_size=4),
    max_leaves=40,
)


class TestJsonWriter:
    @pytest.mark.parametrize("argv", JSON_RECORDS, ids=" ".join)
    def test_records_print_as_json_dumps_would(self, capsys, argv):
        code, out = run(capsys, argv[0], "--json", *argv[1:])
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert code == (json.loads(out)["status"] == "error")

    def test_every_subcommand_is_covered(self):
        assert {argv[0] for argv in JSON_RECORDS} == set(parser_flags())

    @settings(max_examples=300, deadline=None)
    @given(JSON_RECORD)
    def test_nested_values(self, value):
        assert _render(value, None) == json.dumps(value, indent=2)


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
        # rows, nested fields, a warning's message and an error record: each
        # value of the --json record is on its own "name = value" line
        cases = {
            ("search", "6", "4"): ["solutions[1].x = 8192", "solutions[3].verified = True"],
            ("euler", "3"): ["solutions[2].y = 256/81"],
            ("transform", "--abc", "8", "6", "2"): ["numeric.warning = infeasible-truncation"],
            ("euler", "0"): ["message: n_max must be >= 1"],
        }
        for argv, samples in cases.items():
            json_code, doc = run_json(capsys, *argv)
            code, text = run(capsys, *argv)
            lines = text.splitlines()
            assert code == json_code and lines[0] == f"command: {doc['command']}  [{doc['status']}]"
            assert (f"message: {doc['message']}" in lines) == bool(doc["message"]), argv
            expected = [f"  input {k} = {v}" for k, v in doc["inputs"].items()] + list(named_lines("", doc["results"]))
            assert set(expected) <= set(lines), argv
            assert set(samples) <= set(lines), argv

    @pytest.mark.parametrize("argv", JSON_RECORDS, ids=" ".join)
    def test_plain_mode_is_the_json_record_line_for_line(self, capsys, argv):
        json_code, doc = run_json(capsys, *argv)
        expected = [f"command: {doc['command']}  [{doc['status']}]"]
        if doc["message"]:
            expected.append(f"message: {doc['message']}")
        expected += [f"  input {k} = {v}" for k, v in doc["inputs"].items()]
        expected += named_lines("", doc["results"])
        assert run(capsys, *argv) == (json_code, "\n".join(expected) + "\n")

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
        proc = subprocess.Popen(
            [sys.executable, "-m", "xyyx", "search", "200", "200"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert proc.stdout.readline().startswith(b"command: search")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_closed_stdout_is_pointed_at_devnull(self, monkeypatch, tmp_path):
        # emit's own branch, in this process: the write fails, and stdout's
        # descriptor then leads to devnull, not to the file it was
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return fd

        fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert emit('{"status": "ok"}', True, 0) == 1
            monkeypatch.undo()
            os.write(fd, b"after")
        finally:
            os.close(fd)
        assert (tmp_path / "out").read_bytes() == b""

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


def test_only_declared_runtime_dependencies_load():
    # the dev extras are installed wherever the tests run, so importing one of
    # them under src/ would otherwise pass unnoticed
    script = (
        "import contextlib, io, json, sys\n"
        "before = {name.partition('.')[0] for name in sys.modules}\n"
        "import xyyx\n"
        "from xyyx.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['euler', '2', '--json'])\n"
        "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules} - before)))\n"
    )
    proc = run_child(script)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {"xyyx", "mpmath"} <= loaded
    assert loaded - sys.stdlib_module_names <= {"xyyx", "mpmath", "gmpy2"}
