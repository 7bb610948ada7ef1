"""Per-request correctness checks against the generator's own expectations.

``check`` returns None for a correct record and a one-line reason otherwise.
Nothing here trusts a derived field of the record: product values are
compared with a closed form and a tail bound recomputed here, and exact
results with values computed by the generator.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp


def _mpf_from_hex(text: str):
    """Exact value of the CLI's bit-exact hex field [-]0x<mantissa>p<exp>."""
    neg = text.startswith("-")
    man_text, exp_text = text.lstrip("-")[2:].split("p")
    man = int(man_text, 16)
    with mp.workprec(max(64, man.bit_length() + 8)):
        return mp.ldexp(mp.mpf(-man if neg else man), int(exp_text))


def _mpq(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def tail_bound(X: Fraction, Y: Fraction, N: int, convention: str):
    """Upper bound on the log truncation error of the N x N box, rounded up."""
    ax, ay = abs(X), abs(Y)
    with mp.workprec(128):
        x, y = _mpq(ax), _mpq(ay)
        col = y ** (N + 1) / ((N + 1) * (1 - y))
        bound = x ** (N + 1) / (1 - x) * mp.log(1 / (1 - y)) + x / (1 - x) * col
        if convention == "axis":
            bound += col
        return bound * (1 + mp.ldexp(1, -40))


def _check_vpv(exp: dict, res: dict) -> str | None:
    X, Y, N, bits = Fraction(exp["X"]), Fraction(exp["Y"]), exp["N"], exp["bits"]
    echo = (res["truncation"], res["precision_bits"], res["convention"], res["form"])
    if echo != ([N, N], bits, exp["convention"], exp["form"]):
        return f"echoed settings {echo} differ from the request"
    e = 1 / (1 - X) if exp["convention"] == "axis" else X / (1 - X)
    if exp["form"] == "reciprocal":
        e = -e
    log_value = _mpf_from_hex(res["log_value"]["hex"])
    with mp.workprec(bits + 64):
        closed = _mpq(e) * mp.log(1 - _mpq(Y))
        allowed = tail_bound(X, Y, N, exp["convention"]) + mp.ldexp(1, -bits + 16)
        diff = abs(log_value - closed)
        if diff > allowed:
            return f"|log_value - closed form| = {mp.nstr(diff, 5)} exceeds {mp.nstr(allowed, 5)}"
    return None


def _check_transform(exp: dict, res: dict, status: str) -> str | None:
    names = "XYVW"[: len(exp["parameters"])]
    got = [res["parameters"].get(n) for n in names]
    if got != exp["parameters"]:
        return f"parameters {got} != expected {exp['parameters']}"
    if res["exact_closed_equality"] is not True:
        return "exact closed equality is not true"
    num = res["numeric"]
    if exp["kind"] == "fallback":
        if status != "warning" or num.get("warning") != "infeasible-truncation":
            return f"expected an infeasible-truncation fallback, got status {status}"
        if num.get("exact_verdict") is not True:
            return "fallback exact verdict is not true"
        return None
    if status != "ok" or "warning" in num:
        return f"unexpected status {status} / warning {num.get('warning')}"
    if num.get("verdict") is not True:
        return f"{exp['kind']} verdict is {num.get('verdict')}"
    return None


def _ppp_value(text: str):
    """Numeric value of a rendered prime-power product such as 2^(-8/5) * 3."""
    value = mp.mpf(1)
    if text == "1":
        return value
    for factor in text.split(" * "):
        base, _, e = factor.partition("^")
        e = Fraction(e.strip("()")) if e else Fraction(1)
        value *= mp.power(int(base), _mpq(e))
    return value


def _check_family(exp: dict, res: dict) -> str | None:
    got = [res[n] for n in "xyvw"]
    if res["verified"] is not True:
        return "family tuple not verified"
    if exp["rational"]:
        if res["verification"] != "exact" or got != exp["values"]:
            return f"family {got} ({res['verification']}) != expected {exp['values']}"
        return None
    if res["verification"] != "numeric":
        return f"irrational family verified by {res['verification']}"
    with mp.workprec(200):
        for g, want in zip(got, exp["values"]):
            have, want = _ppp_value(g), mp.mpf(want)
            if abs(have - want) > abs(want) * mp.mpf("1e-40"):
                return f"family member {g} = {mp.nstr(have, 20)} != {mp.nstr(want, 20)}"
    return None


def check(req: dict, record: dict) -> str | None:
    """None if ``record`` is the correct reply to ``req``, else the reason."""
    exp = req["expect"]
    kind = exp["kind"]
    status = record["status"]
    if record["command"] != req["argv"][0]:
        return f"reply is for command {record['command']}"
    if status == "error":
        return f"unexpected error: {record['message']}"
    res = record["results"]
    if kind in ("pair", "quad", "fallback"):
        return _check_transform(exp, res, status)
    if status != "ok":
        return f"unexpected status {status}"
    if kind == "vpv":
        return _check_vpv(exp, res)
    if kind == "verify":
        got = [res[n] for n in "xyvw"]
        if got != exp["values"] or res["verification"] != "exact":
            return f"verify echoed {got} via {res['verification']}"
        if res["verified"] is not exp["verified"]:
            return f"verify verdict {res['verified']}, expected {exp['verified']}"
        return None
    if kind == "family":
        return _check_family(exp, res)
    if kind == "digits":
        # the expected count d satisfies 10^(d-1) <= n < 10^d for the exact n
        if res["digits"] != exp["digits"]:
            return f"digits {res['digits']}, expected {exp['digits']}"
        return None
    if kind == "search":
        rows = [[r["b"], r["c"], r["x"], r["y"], r["v"], r["w"]] for r in res["solutions"]]
        if rows != exp["rows"]:
            return f"search rows differ from brute force ({len(rows)} vs {len(exp['rows'])})"
        if not all(r["verified"] is True for r in res["solutions"]):
            return "search row not verified"
        return None
    if kind == "euler":
        rows = [[r["x"], r["y"]] for r in res["solutions"]]
        if [r["n"] for r in res["solutions"]] != list(range(1, len(exp["rows"]) + 1)):
            return "euler rows are not n = 1..n_max"
        if rows != exp["rows"] or not all(r["verified"] is True for r in res["solutions"]):
            return "euler rows differ from the expected solutions"
        return None
    raise ValueError(f"unknown request kind {kind!r}")
