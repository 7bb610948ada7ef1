"""Command-line front end with machine-readable output.

Every subcommand takes --json.  --precision BITS (default: the
VPV_PRECISION_BITS environment variable, else 256; 64 to 65536) goes with
family, digits, vpv-eval and transform, the four that use a working precision;
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
status is "error".  Rationals are read as "p/q" or "p" (no decimals).
An integer or rational argument with more digits than exact.digit_limit()
gives an error naming it, not a usage error; any other argument that does
not parse as its type stays a usage error.
Handlers return the values they computed and main renders each record once,
to JSON text; plain mode is read back from it.  The text holds rationals
and prime-power products as strings, and high-precision reals in scientific
decimal and as bit-exact hex floats.  A value holding an int past the
interpreter's int-to-str digit limit (4300 digits when that limit is off,
exact.digit_limit) gives instead an error naming its field.  Whether an int
is past it is decided by exact.exceeds_digits, which the handlers also ask
about a value before they build it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from mpmath import mp

from . import __version__
from .errors import NonIntegerValue, NonPositiveParameter, OversizedValue
from .exact import (
    PrimePowerProduct,
    check_precision,
    digit_count,
    digit_limit,
    exceeds_digits,
    factorize,
    log10_interval,
    log2_bounds,
)
from .solutions import (
    _euler_verdict,
    _search_rows,
    _triviality,
    classify_triviality,
    euler_solution,
    general_solution,
    numeric_verify,
    rational_family,
    verify_fractions,
    verify_product_equation,
)
from .transforms import (
    check_point_budget,
    pair_from_euler,
    quad_from_family,
    verify_pair_transform,
    verify_quad_transform,
)
from .vpv import Convention, EvalReport, Form, check_box, eval_product

PRECISION_ENV = "VPV_PRECISION_BITS"
DEFAULT_PRECISION = 256
DEFAULT_TRUNCATION = 400

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_INTEGER_RE = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")  # what int() reads


def _shown(text: str) -> str:
    """repr(text) for an error message, or for text of more than digit_limit() characters its length."""
    if len(text) > digit_limit():
        return f"a value of {len(text)} characters"
    return repr(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with optional sign; decimals are rejected, and so is a
    term of more than digit_limit() digits."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational of the form p/q or p: {_shown(text)}")
    limit = digit_limit()
    for term, digits in zip(("numerator", "denominator"), s.lstrip("+-").split("/")):
        if len(digits) > limit:
            raise OversizedValue(f"the {term} of a rational argument", limit)
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_shown(text)}") from None


def _read_int(text: str, what: str):
    """int(text), or for an integer of more than digit_limit() digits the OversizedValue naming it as what.

    The OversizedValue is returned, not raised; main reports it as an error
    record, as parse_rational does a rational's terms.  Text that int() does
    not read raises its ValueError.
    """
    limit = digit_limit()
    if len(text) > limit and _INTEGER_RE.fullmatch(text):
        if len(text.strip().lstrip("+-").replace("_", "")) > limit:
            return OversizedValue(what, limit)
    return int(text)


def _integer(name: str):
    """The argparse type of the integer argument name: _read_int, naming it "the argument name".

    Text that int() does not read is argparse's usage error "invalid int value".
    """

    def parse(text: str):
        try:
            return _read_int(text, f"the argument {name}")
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None

    return parse


def mpf_hex(x) -> str:
    """Bit-exact hex rendering of an mpf: [-]0x<mantissa>p<exponent>."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return "0x0p+0"
    return f"{'-' if sign else ''}0x{man:x}p{exp:+d}"


def render_real(x, precision_bits: int) -> dict:
    digits = max(8, int(precision_bits * 0.30103))
    return {"dec": _scientific(x, digits), "hex": mpf_hex(x)}


def _scientific(x, digits: int) -> str:
    """mp.nstr(x, digits) in exponent form, printing no int of more than digits + 5 digits.

    mpmath prints an mpf within 2^±3500 whose integer part is wider than
    about 3.33 (digits + 3) + 10 bits from that whole integer's decimal
    string, up to about 1060 digits, which the interpreter's int-to-str
    limit can refuse; above 2^3500 it scales by a power of ten itself.
    Here such an integer part is cut to its leading digits + 3 to
    digits + 5 digits by exact division by 10^k, which leaves the digits
    shown and their rounding unchanged, and k goes back into the exponent.
    """
    sign, man, exp, bc = x._mpf_
    if not 4 * digits + 22 < exp + bc <= 3500:
        return mp.nstr(x, digits, min_fixed=1, max_fixed=1)
    whole = man << exp if exp >= 0 else man >> -exp
    k = int((whole.bit_length() - 1) * 0.30102999) - digits - 2
    lead = whole // 10**k
    with mp.workprec(lead.bit_length()):
        text = mp.nstr(mp.mpf(-lead if sign else lead), digits, min_fixed=1, max_fixed=1)
    mantissa, exponent = text.split("e+")
    return f"{mantissa}e+{int(exponent) + k}"


def _oversized(field: str) -> OversizedValue:
    return OversizedValue(f"results.{field}", digit_limit())


class _Unprintable(Exception):
    """A leaf past the digit limit; the keys above it join path on the way out."""

    def __init__(self):
        super().__init__()
        self.path: list[str] = []


def _leaf(value, limit: int) -> str:
    """The JSON text of an int, a Fraction or a product; limit is digit_limit().

    Each int the text holds, the int itself, a Fraction's terms or a
    product's primes and exponent terms, is refused past limit digits, as the
    interpreter refuses it at its own limit, and also when that limit is off.
    """
    if isinstance(value, int):
        if exceeds_digits(value, limit):
            raise _Unprintable
        return int.__repr__(value)
    try:
        text = str(value)
    except ValueError:  # past the interpreter's own limit
        raise _Unprintable from None
    # with that limit off; a text of at most limit characters holds no such int
    if len(text) > limit:
        terms = (value,) if isinstance(value, Fraction) else [t for factor in value.factors for t in factor]
        if any(exceeds_digits(t, limit) for t in terms):
            raise _Unprintable
    return encode_basestring_ascii(text)


def _render(value, precision_bits: int | None) -> str:
    """A handler's record, rendered once, to JSON text; plain mode is read back from it.

    The text is what json.dumps(form, indent=2) writes of the record's form:
    ints, Fractions and products as _leaf gives them, each mpf as the
    {dec, hex} of one render_real call, strs (Convention and Form members
    among them) as their values and an EvalReport field by field at its own
    precision.  The digit limit is read once per record, and a leaf's path is
    built only when the leaf cannot be printed, as the OversizedValue naming
    it.
    """
    limit = digit_limit()
    try:
        return _write(value, precision_bits, limit, "\n")
    except _Unprintable as exc:
        raise OversizedValue("".join(reversed(exc.path)).lstrip("."), limit) from None


def _write(value, precision_bits: int | None, limit: int, newline: str) -> str:
    """_render's text of value, newline being the line break and indent of value's own line."""
    kind = type(value)  # str and bool by exact type; Convention and Form members are strs too
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, (int, Fraction, PrimePowerProduct)):
        return _leaf(value, limit)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, mp.mpf):
        value = render_real(value, precision_bits)
    elif isinstance(value, EvalReport):  # field by field, at its own precision
        value, precision_bits = vars(value), value.precision_bits
    inner = newline + "  "
    if isinstance(value, dict):
        items = []
        try:
            for k, v in value.items():
                items.append(encode_basestring_ascii(k) + ": " + _write(v, precision_bits, limit, inner))
        except _Unprintable as exc:
            exc.path.append(f".{k}")
            raise
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = []
        try:
            for i, v in enumerate(value):
                items.append(_write(v, precision_bits, limit, inner))
        except _Unprintable as exc:
            exc.path.append(f"[{i}]")
            raise
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return json.dumps(value)  # None or a float


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


def emit(text: str, as_json: bool, code: int) -> int:
    """Print a record's JSON text, or in plain mode the lines read back from it.

    The exit code is code, or 1 for a closed stdout.
    """
    if not as_json:
        record = json.loads(text)
        lines = [f"command: {record['command']}  [{record['status']}]"]
        if record["message"]:
            lines.append(f"message: {record['message']}")
        lines += [f"  input {k} = {v}" for k, v in record["inputs"].items()]
        _flat("", record["results"], lines)
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
    return code


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
    euler_solution(args.n_max)  # refuses an n_max too large to print before the first row
    factor = functools.cache(factorize)  # each of 1..n_max + 1 is factored once
    rows = []
    for n in range(1, args.n_max + 1):
        x, y = euler_solution(n)
        rows.append({"n": n, "x": x, "y": y, "verified": _euler_verdict(n, x, y, factor)})
    return _result("euler", {"n_max": args.n_max}, {"solutions": rows})


def _tuple_payload(values, verdict, verified: bool, mode: str) -> dict:
    return {
        **dict(zip("xyvw", values)),
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
        inputs["a"] = a
        t = general_solution(a, Fraction(args.b), Fraction(args.c))
    if t.is_rational:
        for name, u in zip("xyvw", t.values()):  # _render's error, before anything is multiplied out
            if exceeds_digits(u, digit_limit()):
                raise _oversized(name)
        verified, mode = verify_product_equation(t), "exact"
        values = t.as_fractions()
    else:
        verified, mode = numeric_verify(t, args.precision).ok, "numeric"
        values = t.values()  # every member is a rational multiple of x, so none is rational here
    return _result("family", inputs, _tuple_payload(values, classify_triviality(t), verified, mode))


def cmd_verify(args) -> dict:
    vals = [parse_rational(s) for s in (args.x, args.y, args.v, args.w)]
    payload = _tuple_payload(vals, _triviality(vals, 1), verify_fractions(*vals), "exact")
    return _result("verify", dict(zip("xyvw", vals)), payload)


def cmd_digits(args) -> dict:
    t = rational_family(args.b, args.c)
    if any(e < 0 for _, e in t.x.factors):  # y, v and w are integer multiples of x
        raise NonIntegerValue(
            f"family ({args.b}, {args.c}) is not integer-valued: x = {t.x}"
        )
    # the count is more than y log10 x >= 2^(ly - 2), as x >= 2 here
    if exceeds_digits(None, digit_limit(), (log2_bounds(t.y)[0] - 2, math.inf)):
        raise _oversized("digits")
    x, y, _, _ = t.as_fractions()
    common = t.x**y * t.y**x
    digits = digit_count(common)
    if exceeds_digits(digits, digit_limit()):  # before scientific prints it
        raise _oversized("digits")
    enc = log10_interval(common, args.precision)
    # log10 u has digits.bit_length() integer bits; mid keeps p + 8 below the point
    with mp.workprec(args.precision + digits.bit_length() + 8):
        mid = (mp.mpf(enc.a) + mp.mpf(enc.b)) / 2
        lead = mp.power(10, mid - (digits - 1))
    with mp.workprec(args.precision + 8):
        mid = +mid  # the log10 field keeps its p + 8 bits
    results = {
        "common_value": common,
        "digits": digits,
        "log10": mid,
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
        "X": X,
        "Y": Y,
        "truncation": args.truncation,
        "precision_bits": args.precision,
        "convention": args.convention,
        "form": args.form,
    }
    return _result("vpv-eval", inputs, report)


def cmd_transform(args) -> dict:
    has_n = args.n is not None
    has_abc = args.abc is not None
    if has_n == has_abc:
        raise ValueError("give exactly one source: --n N or --abc A B C")
    check_box(args.truncation, args.truncation)  # a box below 1 is named before the instance is built
    if has_n:
        inst = pair_from_euler(args.n)
        inputs = {"n": args.n}
        verify = verify_pair_transform
    else:
        a, b, c = (parse_rational(s) for s in args.abc)
        try:  # a parameter past the digit limit is refused before it is multiplied out
            inst = quad_from_family(a, b, c)
        except OversizedValue as exc:
            raise _oversized(exc.what) from None
        inputs = {"a": a, "b": b, "c": c}
        verify = verify_quad_transform
    report = verify(
        inst, args.truncation, precision_bits=args.precision, convention=Convention(args.convention)
    )
    # the TransformReport fields the record shows: the numeric comparison's or the fallback's
    status, message, shown = "ok", "", ("verdict", "abs_log_diff", "combined_bound", "left", "right")
    if report.warning is not None:
        status = "warning"
        message = (
            "tail bound cannot reach tolerance at this truncation; "
            "falling back to the exact scalar identity"
        )
        shown = ("warning", "exact_verdict", "combined_bound", "feasible_truncation")
    inputs.update(
        {
            "truncation": args.truncation,
            "precision_bits": args.precision,
            "convention": args.convention,
        }
    )
    results = {
        "kind": inst.kind,
        "parameters": dict(zip("XYVW", inst.parameters())),
        "exact_closed_equality": report.exact_verdict,
        "numeric": {name: getattr(report, name) for name in shown},
    }
    return _result("transform", inputs, results, status, message)


def cmd_search(args) -> dict:
    # the first row past the digit limit is refused by _integral_pairs, before any row is built,
    # so each value printed as str(u) is the text its Fraction would give
    try:
        found = _search_rows(args.b_max, args.c_max, digit_limit())
    except OversizedValue as exc:
        raise _oversized(exc.what) from None
    rows = [
        {"b": b, "c": c, **{name: str(u) for name, u in zip("xyvw", values)}, "verified": verified}
        for b, c, values, verified in found
    ]
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
        type=_integer("--precision"),
        default=None,  # None reads the environment on every call
        metavar="BITS",
        help=f"working precision in bits (default {PRECISION_ENV} or {DEFAULT_PRECISION})",
    )
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument(
        "--truncation",
        type=_integer("--truncation"),
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
    p.add_argument("n_max", type=_integer("n_max"))
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser(
        "family", parents=[json_flag, precision],
        help="one (a, b, c) solution tuple",
    )
    p.add_argument("b", type=_integer("b"))
    p.add_argument("c", type=_integer("c"))
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
    p.add_argument("b", type=_integer("b"))
    p.add_argument("c", type=_integer("c"))
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
    p.add_argument("--n", type=_integer("--n"), default=None, help="pair instance from the n-th solution")
    p.add_argument("--abc", nargs=3, default=None, metavar=("A", "B", "C"),
                   help="quad instance from family parameters")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("search", parents=[json_flag], help="all-integer family tuples in a range")
    p.add_argument("b_max", type=_integer("b_max"))
    p.add_argument("c_max", type=_integer("c_max"))
    p.set_defaults(func=cmd_search)

    return parser


def _env_precision() -> int:
    """The precision in PRECISION_ENV, read as --precision is read.

    A value past the digit limit is named, not echoed.
    """
    text = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION))
    try:
        bits = _read_int(text, PRECISION_ENV)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {_shown(text)}") from None
    if isinstance(bits, OversizedValue):
        raise bits
    return bits


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code = 0
    try:
        for value in vars(args).values():
            if isinstance(value, OversizedValue):
                raise value
        if hasattr(args, "precision"):
            if args.precision is None:
                args.precision = _env_precision()
            check_precision(args.precision)
        text = _render(args.func(args), getattr(args, "precision", None))
    except ValueError as exc:  # every error class in errors.py is one
        text, code = _render(_result(args.command, {}, {}, status="error", message=str(exc)), None), 1
    return emit(text, args.json, code)


if __name__ == "__main__":
    sys.exit(main())
