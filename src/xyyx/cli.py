"""Command-line front end with machine-readable output.

Every subcommand takes --json.  --precision BITS (default: the
VPV_PRECISION_BITS environment variable, else 256) goes with family, digits,
vpv-eval and transform, the four that use a working precision;
--truncation N and --convention axis|strict go with vpv-eval and transform,
the two that evaluate products.  euler, verify and search are exact and take
no numeric flags; a flag a subcommand does not take is a usage error (exit
code 2).  The product commands refuse a box whose evaluations would
enumerate more than the fixed budget of 10^7 lattice points; a transform
whose tails cannot reach its tolerance gets status "warning" and the exact
verdict instead of a numeric one.

Every command emits a result record {command, inputs, results, status,
message}; --json prints it as a single JSON document, otherwise as aligned
human-readable lines with the same numeric content.  Exit code is 0 unless
status is "error".  Rationals are read as "p/q" or "p" (no decimals), and
high-precision reals are rendered both in scientific decimal and as bit-exact
hex floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from mpmath import mp

from . import __version__
from .errors import NonIntegerValue, NonPositiveParameter
from .exact import digit_count, log10_interval
from .solutions import (
    classify_triviality,
    euler_solution,
    general_solution,
    manual_tuple,
    numeric_verify,
    quad_identity,
    rational_family,
    search_integer_solutions,
    verify_power_equation,
    verify_product_equation,
)
from .transforms import (
    check_point_budget,
    pair_from_euler,
    quad_from_family,
    verify_pair_transform,
    verify_quad_transform,
)
from .vpv import Convention, Form, eval_product

PRECISION_ENV = "VPV_PRECISION_BITS"
DEFAULT_PRECISION = 256
DEFAULT_TRUNCATION = 400

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with optional sign; decimals are rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational of the form p/q or p: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def render_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def mpf_hex(x) -> str:
    """Bit-exact hex rendering of an mpf: [-]0x<mantissa>p<exponent>."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return "0x0p+0"
    return f"{'-' if sign else ''}0x{man:x}p{exp:+d}"


def render_real(x, precision_bits: int) -> dict:
    digits = max(8, int(precision_bits * 0.30103))
    return {"dec": mp.nstr(x, digits, min_fixed=1, max_fixed=1), "hex": mpf_hex(x)}


def _eval_report_payload(report, precision_bits: int) -> dict:
    r = lambda v: render_real(v, precision_bits)
    return {
        "product_value": r(report.product_value),
        "log_value": r(report.log_value),
        "closed_form_value": r(report.closed_form_value),
        "abs_log_diff": r(report.abs_log_diff),
        "tail_bound": r(report.tail_bound),
        "truncation": list(report.truncation),
        "precision_bits": report.precision_bits,
        "convention": report.convention.value,
        "form": report.form.value,
    }


def _flat(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
        if set(value) == {"dec", "hex"}:
            lines.append(f"{prefix} = {value['dec']}  (hex {value['hex']})")
            return
        for k, v in value.items():
            _flat(f"{prefix}.{k}" if prefix else k, v, lines)
    elif isinstance(value, list):
        if value and isinstance(value[0], dict):
            for i, v in enumerate(value):
                _flat(f"{prefix}[{i}]", v, lines)
        else:
            lines.append(f"{prefix} = {value}")
    else:
        lines.append(f"{prefix} = {value}")


def emit(result: dict, as_json: bool) -> int:
    """Print the record; exit code 1 for an error record or a closed stdout."""
    if as_json:
        text = json.dumps(result, indent=2)
    else:
        lines: list[str] = [f"command: {result['command']}  [{result['status']}]"]
        if result["message"]:
            lines.append(f"message: {result['message']}")
        for k, v in result["inputs"].items():
            lines.append(f"  input {k} = {v}")
        _flat("", {k: v for k, v in result["results"].items()}, lines)
        text = "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0 if result["status"] != "error" else 1


def _result(command: str, inputs: dict, results: dict, status: str = "ok", message: str = "") -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
        "message": message,
    }


def cmd_euler(args) -> dict:
    if args.n_max < 1:
        raise NonPositiveParameter("n_max must be >= 1")
    rows = []
    for n in range(1, args.n_max + 1):
        x, y = euler_solution(n)
        rows.append(
            {
                "n": n,
                "x": render_fraction(x),
                "y": render_fraction(y),
                "verified": verify_power_equation(x, y),
            }
        )
    return _result("euler", {"n_max": args.n_max}, {"solutions": rows})


def _tuple_payload(t, verified: bool, mode: str) -> dict:
    verdict = classify_triviality(t)
    values = {
        name: render_fraction(u.to_fraction()) if u.is_rational else str(u)
        for name, u in zip("xyvw", t.values())
    }
    return {
        **values,
        "verified": verified,
        "verification": mode,
        "trivial": verdict.trivial,
        "triviality_reason": verdict.reason,
    }


def cmd_family(args) -> dict:
    inputs = {"b": args.b, "c": args.c}
    if args.a is None:
        t = rational_family(args.b, args.c)
    else:
        a = parse_rational(args.a)
        inputs["a"] = render_fraction(a)
        t = general_solution(a, Fraction(args.b), Fraction(args.c))
    if t.is_rational:
        payload = _tuple_payload(t, verify_product_equation(t), "exact")
    else:
        ok, _ = numeric_verify(t, args.precision)
        payload = _tuple_payload(t, ok, "numeric")
    return _result("family", inputs, payload)


def cmd_verify(args) -> dict:
    vals = [parse_rational(s) for s in (args.x, args.y, args.v, args.w)]
    t = manual_tuple(*vals)
    payload = _tuple_payload(t, verify_product_equation(t), "exact")
    inputs = dict(zip("xyvw", (render_fraction(q) for q in vals)))
    return _result("verify", inputs, payload)


def cmd_digits(args) -> dict:
    t = rational_family(args.b, args.c)
    if not all(u.is_rational and u.to_fraction().denominator == 1 for u in t.values()):
        raise NonIntegerValue(
            f"family ({args.b}, {args.c}) is not integer-valued: x = {t.x}"
        )
    common = quad_identity(t).left
    digits = digit_count(common)
    enc = log10_interval(common, args.precision)
    with mp.workprec(args.precision + 8):
        mid = (mp.mpf(enc.a) + mp.mpf(enc.b)) / 2
        lead = mp.power(10, mid - (digits - 1))
    results = {
        "common_value": str(common),
        "digits": digits,
        "log10": render_real(mid, args.precision),
        "leading_digits": mp.nstr(lead, 6),
        "scientific": f"{mp.nstr(lead, 4)}e+{digits - 1}",
    }
    return _result("digits", {"b": args.b, "c": args.c}, results)


def cmd_vpv_eval(args) -> dict:
    X = parse_rational(args.X)
    Y = parse_rational(args.Y)
    check_point_budget(1, args.truncation)
    report = eval_product(
        X,
        Y,
        args.truncation,
        args.truncation,
        args.precision,
        Convention(args.convention),
        Form(args.form),
    )
    inputs = {
        "X": render_fraction(X),
        "Y": render_fraction(Y),
        "truncation": args.truncation,
        "precision_bits": args.precision,
        "convention": args.convention,
        "form": args.form,
    }
    return _result("vpv-eval", inputs, _eval_report_payload(report, args.precision))


def _transform_payload(report, precision_bits: int) -> dict:
    payload: dict = {}
    if report.warning is not None:
        payload["warning"] = report.warning
        payload["exact_verdict"] = report.exact_verdict
        payload["combined_bound"] = render_real(report.combined_bound, precision_bits)
        payload["feasible_truncation"] = report.feasible_truncation
        return payload
    payload["verdict"] = report.verdict
    payload["abs_log_diff"] = render_real(report.abs_log_diff, precision_bits)
    payload["combined_bound"] = render_real(report.combined_bound, precision_bits)
    payload["left"] = _eval_report_payload(report.left, precision_bits)
    payload["right"] = _eval_report_payload(report.right, precision_bits)
    return payload


def cmd_transform(args) -> dict:
    has_n = args.n is not None
    has_abc = args.abc is not None
    if has_n == has_abc:
        raise ValueError("give exactly one source: --n N or --abc A B C")
    if has_n:
        inst = pair_from_euler(args.n)
        inputs = {"n": args.n}
        verify = verify_pair_transform
    else:
        a, b, c = (parse_rational(s) for s in args.abc)
        inst = quad_from_family(a, b, c)
        inputs = {"a": render_fraction(a), "b": render_fraction(b), "c": render_fraction(c)}
        verify = verify_quad_transform
    report = verify(
        inst, args.truncation, precision_bits=args.precision, convention=Convention(args.convention)
    )
    status, message = "ok", ""
    if report.warning is not None:
        status = "warning"
        message = (
            "tail bound cannot reach tolerance at this truncation; "
            "falling back to the exact scalar identity"
        )
    inputs.update(
        {
            "truncation": args.truncation,
            "precision_bits": args.precision,
            "convention": args.convention,
        }
    )
    results = {
        "kind": inst.kind,
        "parameters": {
            name: render_fraction(q) for name, q in zip("XYVW", inst.parameters())
        },
        "exact_closed_equality": report.exact_verdict,
        "numeric": _transform_payload(report, args.precision),
    }
    return _result("transform", inputs, results, status, message)


def cmd_search(args) -> dict:
    found = search_integer_solutions(args.b_max, args.c_max)
    rows = []
    for t in found:
        b, c = t.params
        rows.append(
            {
                "b": int(b),
                "c": int(c),
                **{
                    name: render_fraction(u.to_fraction())
                    for name, u in zip("xyvw", t.values())
                },
                "verified": verify_product_equation(t),
            }
        )
    return _result(
        "search", {"b_max": args.b_max, "c_max": args.c_max}, {"solutions": rows}
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by later ones.

    Each subcommand takes only the flags its handler reads (module docstring).
    """
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit a JSON document")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision",
        type=int,
        default=None,  # None reads the environment on every call
        metavar="BITS",
        help=f"working precision in bits (default {PRECISION_ENV} or {DEFAULT_PRECISION})",
    )
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument(
        "--truncation",
        type=int,
        default=DEFAULT_TRUNCATION,
        metavar="N",
        help=f"lattice box bound Nj = Nk = N (default {DEFAULT_TRUNCATION})",
    )
    lattice.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        default=Convention.AXIS.value,
        help="product region convention (default axis)",
    )

    parser = argparse.ArgumentParser(
        prog="xyyx",
        description="Exact solution families of x^y = y^x and x^y y^x = v^w w^v, "
        "and the visible-point product identities they induce.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("euler", parents=[json_flag], help="list x^y = y^x solutions")
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser(
        "family", parents=[json_flag, precision],
        help="one (a, b, c) solution tuple",
    )
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--a", default=None, help="rational a (default b+c)")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", parents=[json_flag], help="exact check of x^y y^x = v^w w^v")
    for name in "xyvw":
        p.add_argument(name)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "digits", parents=[json_flag, precision],
        help="digit count of the family's common value",
    )
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=cmd_digits)

    p = sub.add_parser(
        "vpv-eval", parents=[json_flag, precision, lattice],
        help="evaluate one truncated product",
    )
    p.add_argument("X")
    p.add_argument("Y")
    p.add_argument(
        "--form",
        choices=[f.value for f in Form],
        default=Form.DIRECT.value,
        help="direct product or its reciprocal (default direct)",
    )
    p.set_defaults(func=cmd_vpv_eval)

    p = sub.add_parser(
        "transform", parents=[json_flag, precision, lattice],
        help="verify a product-identity transform",
    )
    p.add_argument("--n", type=int, default=None, help="pair instance from the n-th solution")
    p.add_argument("--abc", nargs=3, default=None, metavar=("A", "B", "C"),
                   help="quad instance from family parameters")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("search", parents=[json_flag], help="all-integer family tuples in a range")
    p.add_argument("b_max", type=int)
    p.add_argument("c_max", type=int)
    p.set_defaults(func=cmd_search)

    return parser


def _env_precision() -> int:
    text = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "precision") and args.precision is None:
            args.precision = _env_precision()
        result = args.func(args)
    except ValueError as exc:  # every error class in errors.py is one
        result = _result(args.command, {}, {}, status="error", message=str(exc))
    return emit(result, args.json)


if __name__ == "__main__":
    sys.exit(main())
