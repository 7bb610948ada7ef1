"""Seeded request generators for the benchmark workloads.

A workload is a fixed template of request slots, repeated in rounds.  The
template fixes each slot's command, cost class (truncation range, precision)
and position; the seed draws the parameters inside each slot.  Every seed
therefore issues the same mix in the same order, which keeps throughput and
latency comparable across seeds, while the parameters still vary.

Each request carries the argv handed to ``xyyx.cli.main`` and an ``expect``
record that the oracle checks the reply against.  Expectations are computed
here with plain integers, fractions and mpmath, never with xyyx.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mp

# Magnitude bands for |X| and |Y|, together spanning 1/10 to 14/15.  Small
# magnitudes drop below working precision early in the box, near-1 ones never
# do.  A slot fixes the band and the sign, because mpmath's log costs up to
# twice as much for some sign patterns at 2048 bits.  Bands are narrow, N
# ranges within about 10%, and dyadic values (short mantissas, cheaper
# products) are left to the fixed anchors and transforms, so one slot costs
# about the same for every seed.
MAGNITUDES = {
    "small": (Fraction(1, 10), Fraction(1, 8)),
    "quarter": (Fraction(1, 4), Fraction(1, 3)),
    "half": (Fraction(1, 2), Fraction(3, 5)),
    "near": (Fraction(7, 8), Fraction(15, 16)),
}
_FRACTIONS = sorted(f for f in {Fraction(p, q) for q in range(2, 17) for p in range(1, q)}
                    if f.denominator & (f.denominator - 1))  # not dyadic

# Lattice template.  Slots: ("vpv", X band, Y band, N range, bits) with a
# signed band such as "-near", ("pair", n, N range, bits), ("quad", (a, b, c),
# N range, bits) and ("anchor", X, Y, N, bits), an unvarying vpv-eval.
#
# The slots fall into three cost classes, so that each reported quantile lands
# inside one class and not on the edge between two: 15 standard-precision
# slots (128-512 bits) of about equal cost, where the median falls; 4
# high-precision slots (1024-2048 bits) of about equal cost, each about four
# standard ones, where the p90 tail falls; and the fixed anchor, the costliest.
# N is set per slot to even out the costs within a class.
LATTICE = [
    ("anchor", "1/2", "3/4", 400, 256),
    ("pair", 1, (70, 74), 256),
    ("vpv", "+small", "-near", (112, 118), 256),
    ("vpv", "-half", "+half", (120, 126), 128),
    ("anchor", "1/2", "3/4", 68, 2048),
    ("pair", 2, (76, 80), 256),
    ("vpv", "+near", "+small", (104, 108), 256),
    ("vpv", "-near", "-near", (104, 108), 256),
    ("quad", (3, 2, 1), (54, 57), 256),
    ("vpv", "+near", "-near", (64, 67), 2048),
    ("vpv", "-small", "+small", (124, 130), 256),
    ("pair", 3, (70, 74), 256),
    ("vpv", "+half", "+near", (92, 96), 384),
    ("pair", 1, (80, 84), 1024),
    ("vpv", "+quarter", "-half", (88, 92), 512),
    ("pair", 4, (70, 74), 256),
    ("vpv", "-near", "+quarter", (104, 108), 256),
    ("vpv", "-small", "+half", (100, 104), 1536),
    ("vpv", "+half", "-small", (112, 118), 256),
    ("vpv", "+near", "+near", (86, 90), 512),
]

# Exact-mix template: one entry per request slot of a round.
EXACT_MIX = [
    "euler-anchor", "euler", "family-anchor", "family", "family-a", "verify-true",
    "verify-false-anchor", "digits-2-2", "fallback-anchor", "search",
    "euler", "family", "family-a", "verify-true", "verify-false", "digits-4-4",
    "fallback", "verify-paper", "family-a-anchor", "search-anchor",
    "euler", "family", "family-a", "verify-true", "verify-big", "digits-6-2",
    "fallback-9-6-3", "fallback", "euler", "family", "family-a", "verify-false",
    "digits-6-3", "fallback-4-2-2", "search",
]

# Quads on the rational family a = b + c whose parameters lie so close to 1
# that no truncation up to 1000 brings the tail bound under the 1e-8
# tolerance, so the CLI must report infeasible-truncation.
FALLBACK_QUADS = [(5, 3, 2), (6, 4, 2), (6, 3, 3), (7, 4, 3), (7, 5, 2), (8, 6, 2), (9, 6, 3)]
FALLBACK_N = (100, 1000)
# Multipliers a for the general family; with b, c in 1..4 these give both
# rational and irrational tuples.
GENERAL_A = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4, 3),
             Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]

WORKLOADS = {
    "lattice": LATTICE,
    "exact-mix": EXACT_MIX,
}
# Rounds generated per seed; a run that exhausts them starts over.
ROUNDS = {"lattice": 12, "exact-mix": 200}


def render(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _pick_fraction(rng: random.Random, band: str) -> Fraction:
    lo, hi = MAGNITUDES[band[1:]]
    q = rng.choice([f for f in _FRACTIONS if lo <= f <= hi])
    return -q if band[0] == "-" else q


def euler_pair(n: int) -> tuple[Fraction, Fraction]:
    base = Fraction(n + 1, n)
    return base**n, base ** (n + 1)


def family_tuple(b: int, c: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The rational family a = b + c as plain fractions."""
    y = Fraction(b**c * c**b)
    x = y / (b + c)
    return x, y, b * x, c * x


def _iroot(n: int, k: int) -> int | None:
    """Exact integer k-th root of a small n >= 0, or None."""
    r = round(n ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**k == n:
            return cand
    return None


def general_expectation(a: Fraction, b: int, c: int) -> dict:
    """Expected family record for y = a x, v = b x, w = c x."""
    base = Fraction(b**c * c**b) / a
    t = a - b - c + 1  # x = base^(1/t)
    r, s = t.numerator, t.denominator
    num_root = _iroot(base.numerator, abs(r))
    den_root = _iroot(base.denominator, abs(r))
    if num_root is not None and den_root is not None:
        root = Fraction(num_root, den_root)
        x = (root if r > 0 else 1 / root) ** s
        vals = [x, a * x, b * x, c * x]
        return {"rational": True, "values": [render(q) for q in vals]}
    with mp.workprec(200):
        xm = mp.power(mp.mpf(base.numerator) / base.denominator, mp.mpf(s) / r)
        vals = [xm, xm * (mp.mpf(a.numerator) / a.denominator), xm * b, xm * c]
        return {"rational": False, "values": [mp.nstr(v, 50) for v in vals]}


def _lhs_minus_rhs(vals: list[Fraction]) -> float:
    with mp.workprec(256):
        x, y, v, w = (mp.mpf(q.numerator) / q.denominator for q in vals)
        return float(y * mp.log(x) + x * mp.log(y) - w * mp.log(v) - v * mp.log(w))


def _verify_request(vals: list[Fraction], truth: bool) -> dict:
    # construction decides the truth; the log residual must agree with it
    residual = abs(_lhs_minus_rhs(vals))
    if truth != (residual < 1e-30):
        raise AssertionError(f"verify tuple {vals} built as {truth}, residual {residual}")
    return {
        "argv": ["verify", *(render(q) for q in vals)],
        "expect": {"kind": "verify", "verified": truth, "values": [render(q) for q in vals]},
    }


def _true_family_tuple(rng: random.Random) -> list[Fraction]:
    x, y, v, w = family_tuple(rng.randint(1, 8), rng.randint(1, 8))
    left, right = [x, y], [v, w]
    rng.shuffle(left)
    rng.shuffle(right)
    return left + right if rng.random() < 0.5 else right + left


_BIG_PRIMES = [p for p in range(1_000_003, 1_002_000, 2)
               if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


def _lattice_request(rng: random.Random, slot: tuple) -> dict:
    kind = slot[0]
    if kind == "anchor":
        _, X, Y, N, bits = slot
        return _vpv(Fraction(X), Fraction(Y), N, bits, "axis", "direct")
    if kind == "vpv":
        _, cx, cy, (lo, hi), bits = slot
        X, Y = _pick_fraction(rng, cx), _pick_fraction(rng, cy)
        conv = rng.choice(["axis", "strict"])
        form = rng.choice(["direct", "reciprocal"])
        return _vpv(X, Y, rng.randint(lo, hi), bits, conv, form)
    N = rng.randint(*slot[2])
    bits = slot[3]
    # the transform identities hold in the axis convention only
    common = ["--truncation", str(N), "--precision", str(bits), "--convention", "axis"]
    if kind == "pair":
        n = slot[1]
        x, y = euler_pair(n)
        return {
            "argv": ["transform", "--n", str(n), *common],
            "expect": {"kind": "pair", "parameters": [render(1 - 1 / x), render(1 - 1 / y)]},
        }
    a, b, c = slot[1]
    return {
        "argv": ["transform", "--abc", str(a), str(b), str(c), *common],
        "expect": {"kind": "quad", "parameters": _quad_parameters(a, b, c)},
    }


def _quad_parameters(a: int, b: int, c: int) -> list[str]:
    """X, Y, V, W = (u - 1) / u over the family tuple; rational since a = b + c."""
    vals = [Fraction(s) for s in general_expectation(Fraction(a), b, c)["values"]]
    return [render((q - 1) / q) for q in vals]


def _vpv(X: Fraction, Y: Fraction, N: int, bits: int, conv: str, form: str) -> dict:
    # "--" ends the options, so a leading minus is not read as a flag
    argv = ["vpv-eval", "--truncation", str(N), "--precision", str(bits),
            "--convention", conv, "--form", form, "--", render(X), render(Y)]
    return {
        "argv": argv,
        "expect": {"kind": "vpv", "X": render(X), "Y": render(Y), "N": N,
                   "bits": bits, "convention": conv, "form": form},
    }


class _ExactGenerator:
    """Exact-mix requests; expectations are cached per distinct input."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.digits_cache: dict[tuple[int, int], int] = {}
        self.search_cache: dict[tuple[int, int], list] = {}
        self.euler_rows = [[render(v) for v in euler_pair(n)] for n in range(1, 61)]

    def request(self, slot: str) -> dict:
        rng = self.rng
        if slot.startswith("euler"):
            return self.euler(50 if slot == "euler-anchor" else rng.randint(5, 60))
        if slot == "family-anchor":
            return self.family(6, 3)
        if slot == "family":
            return self.family(rng.randint(1, 8), rng.randint(1, 8))
        if slot == "family-a-anchor":
            return self.general(Fraction(1), 2, 2)
        if slot == "family-a":
            while True:
                a, b, c = rng.choice(GENERAL_A), rng.randint(1, 4), rng.randint(1, 4)
                if a + 1 != b + c:
                    return self.general(a, b, c)
        if slot == "verify-true":
            return _verify_request(_true_family_tuple(rng), True)
        if slot == "verify-paper":
            return _verify_request([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2), Fraction(4, 3)], True)
        if slot == "verify-false-anchor":
            return _verify_request([Fraction(2), Fraction(3), Fraction(2), Fraction(4)], False)
        if slot == "verify-false":
            while True:
                vals = _true_family_tuple(rng)
                vals[3] += rng.choice([Fraction(1), Fraction(1, 2), Fraction(2, 3)])
                if abs(_lhs_minus_rhs(vals)) > 1e-30:
                    return _verify_request(vals, False)
        if slot == "verify-big":
            # a cofactor with both primes above 10^6 sends factorize to Brent's rho
            p, q, r = rng.sample(_BIG_PRIMES, 3)
            x = Fraction(p * q, rng.randint(2, 9))
            y = Fraction(rng.randint(2, 9), rng.randint(2, 9))
            if rng.random() < 0.5:
                return _verify_request([x, y, y, x], True)
            return _verify_request([x, y, y, Fraction(p * r, x.denominator)], False)
        if slot.startswith("digits-"):
            b, c = (int(s) for s in slot.split("-")[1:])
            return self.digits(b, c)
        if slot == "search-anchor":
            return self.search(60, 60)
        if slot == "search":
            return self.search(rng.randint(4, 20), rng.randint(4, 20))
        if slot == "fallback-anchor":
            return _fallback(8, 6, 2, None)
        if slot == "fallback-9-6-3":
            return _fallback(9, 6, 3, None)
        if slot == "fallback-4-2-2":
            return _fallback(4, 2, 2, 300)
        if slot == "fallback":
            a, b, c = rng.choice(FALLBACK_QUADS)
            return _fallback(a, b, c, rng.randint(*FALLBACK_N))
        raise ValueError(f"unknown exact-mix slot {slot!r}")

    def euler(self, n_max: int) -> dict:
        rows = self.euler_rows[:n_max]
        return {"argv": ["euler", str(n_max)], "expect": {"kind": "euler", "rows": rows}}

    def family(self, b: int, c: int) -> dict:
        vals = [render(q) for q in family_tuple(b, c)]
        return {"argv": ["family", str(b), str(c)],
                "expect": {"kind": "family", "rational": True, "values": vals}}

    def general(self, a: Fraction, b: int, c: int) -> dict:
        exp = general_expectation(a, b, c)
        return {"argv": ["family", str(b), str(c), "--a", render(a)],
                "expect": {"kind": "family", **exp}}

    def digits(self, b: int, c: int) -> dict:
        if (b, c) not in self.digits_cache:
            x, y, _, _ = family_tuple(b, c)
            xi, yi = int(x), int(y)
            n = xi**yi * yi**xi
            d = int(n.bit_length() * math.log10(2)) + 1
            while 10 ** (d - 1) > n:
                d -= 1
            while n >= 10**d:
                d += 1
            self.digits_cache[(b, c)] = d
        return {"argv": ["digits", str(b), str(c)],
                "expect": {"kind": "digits", "digits": self.digits_cache[(b, c)]}}

    def search(self, b_max: int, c_max: int) -> dict:
        key = (b_max, c_max)
        if key not in self.search_cache:
            rows = []
            for b in range(1, b_max + 1):
                for c in range(1, c_max + 1):
                    if (b**c * c**b) % (b + c) == 0:
                        rows.append([b, c, *(render(q) for q in family_tuple(b, c))])
            self.search_cache[key] = rows
        return {"argv": ["search", str(b_max), str(c_max)],
                "expect": {"kind": "search", "rows": self.search_cache[key]}}


def _fallback(a: int, b: int, c: int, N: int | None) -> dict:
    argv = ["transform", "--abc", str(a), str(b), str(c)]
    if N is not None:
        argv += ["--truncation", str(N)]
    return {"argv": argv, "expect": {"kind": "fallback", "parameters": _quad_parameters(a, b, c)}}


def generate(workload: str, seed: int, rounds: int | None = None) -> list[dict]:
    """The request list for one workload and seed; identical for equal seeds."""
    template = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "exact-mix":
        gen = _ExactGenerator(rng)
        for _ in range(rounds or ROUNDS[workload]):
            out.extend(gen.request(slot) for slot in template)
    else:
        for _ in range(rounds or ROUNDS[workload]):
            out.extend(_lattice_request(rng, slot) for slot in template)
    for i, req in enumerate(out):
        req["id"] = i
        req["argv"] = [req["argv"][0], "--json", *req["argv"][1:]]
    return out


def warmup(workload: str) -> list[dict]:
    """Small requests touching every slot kind, run before timing starts.

    They fill mpmath's per-precision constant caches and the interpreter's
    first-call paths, which a long-running caller pays once.
    """
    if workload == "exact-mix":
        return generate(workload, seed=-1, rounds=1)
    rng = random.Random(f"{workload}:warmup")
    out = []
    for slot in WORKLOADS[workload]:
        if slot[0] == "anchor":
            slot = (*slot[:3], 12, slot[4])
        else:
            # the (3, 2, 1) quad needs N >= 40 to stay under the tolerance
            n = 40 if slot[0] == "quad" else 12
            slot = (*slot[:-2], (n, n), slot[-1])
        out.append(_lattice_request(rng, slot))
    for i, req in enumerate(out):
        req["id"] = -1 - i
        req["argv"] = [req["argv"][0], "--json", *req["argv"][1:]]
    return out
