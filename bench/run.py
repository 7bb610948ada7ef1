"""Closed-loop benchmark of the xyyx command line.

One client, no threads: each request is a ``xyyx.cli.main([..., "--json"])``
call made in this process, issued only after the previous reply was checked.

    python3 bench/run.py --workload lattice --seed 1 --seconds 50 --trace 0

--trace 0 times the workload for --seconds and reports the end-to-end
metrics; --trace 1 runs a fixed prefix of the same requests untraced and then
traced, and reports the per-layer metrics.  The last line of standard output
is one JSON object {correct, attempted, failed, metrics}.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import mpmath.libmp
import oracle
import workloads
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


def _per_layer() -> list[tuple[str, str]]:
    out = [
        ("vpv.eval_product.calls", "count"),
        ("vpv.eval_product.self_s", "s"),
        ("vpv.eval_product.ns_per_point", "ns"),
        ("vpv.eval_product.logs", "count"),
        ("vpv.tail_bound.calls", "count"),
        ("vpv.tail_bound.self_s", "s"),
    ]
    for fn in ("verify_pair_transform", "verify_quad_transform", "closed_equality_check"):
        out += [(f"transforms.{fn}.calls", "count"), (f"transforms.{fn}.self_s", "s")]
    out += [
        ("transforms.fallback_ratio", "ratio"),
        ("cli.main.self_s", "s"),
        ("cli.build_parser.self_s", "s"),
        ("cli.render_real.calls", "count"),
        ("cli.render_real.self_s", "s"),
    ]
    for fn in ("verify_product_equation", "verify_power_equation", "numeric_verify",
               "rational_family", "general_solution", "search_integer_solutions"):
        out += [(f"solutions.{fn}.calls", "count"), (f"solutions.{fn}.self_s", "s")]
    out += [
        ("exact.factorize.calls", "count"),
        ("exact.factorize.self_s", "s"),
        ("exact.is_prime.calls", "count"),
        ("exact.PrimePowerProduct.__mul__.self_s", "s"),
        ("exact.PrimePowerProduct.__pow__.self_s", "s"),
        ("exact.digit_count.self_s", "s"),
        ("exact.log10_interval.self_s", "s"),
        ("trace.untraced_throughput_rps", "1/s"),
        ("trace.traced_throughput_rps", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


PER_LAYER = _per_layer()

# Tail percentile per workload: the highest that keeps at least ten samples
# above it in a 50 s run (six lattice rounds of 20, ~130 exact-mix rounds of
# 35).  Each falls inside one slot class: lattice's high-precision slots,
# exact-mix's verify-big slot.
TAIL_PERCENTILE = {"lattice": 90, "exact-mix": 99}
# Mean request time on the same machine.  The traced run covers the first
# seconds / 2 / mean requests, at most MAX_TRACED_REQUESTS (about 400 spans
# each on exact-mix), so its size depends on --seconds only and its counts
# repeat exactly.
MEAN_REQUEST_S = {"lattice": 0.45, "exact-mix": 0.011}
MAX_TRACED_REQUESTS = 700
SETUP_LAUNCHES = 11
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import xyyx.cli; "
    "xyyx.cli.build_parser(); print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
)


def import_program():
    """Import xyyx from this checkout's src/, never from anywhere else."""
    if not (SRC / "xyyx" / "__init__.py").is_file():
        sys.exit(f"bench: no xyyx package under {SRC}")
    sys.path.insert(0, str(SRC))
    import xyyx.cli

    if Path(xyyx.__file__).resolve().parent != SRC / "xyyx":
        sys.exit(f"bench: imported xyyx from {xyyx.__file__}, not {SRC}")
    return xyyx


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup() -> list[float]:
    """Seconds from launching a fresh interpreter until build_parser() returned."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append((int(done.stdout.strip()) - t0) / 1e9)
    return times


@dataclass
class Pass:
    """Latencies and failures of one pass over a request list."""

    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    wall_s: float = 0.0


def run_pass(cli, requests: list[dict], seconds: float | None = None, round_len: int = 1,
             count: int | None = None, tamper=None, on_request=None) -> Pass:
    """Issue requests in order (cycling) until ``count`` or ``seconds`` is reached.

    A timed pass ends on a multiple of ``round_len`` requests, so that its
    latencies hold whole rounds and their mix does not depend on speed.
    ``tamper(req, record)`` may alter a parsed record before it is checked,
    which is how the self-check shows that a wrong record is counted.
    """
    result = Pass()
    clock = time.perf_counter
    t0 = clock()
    i = 0
    while (count is None or i < count) and (
            seconds is None or i == 0 or i % round_len or clock() - t0 < seconds):
        req = requests[i % len(requests)]
        if on_request is not None:
            on_request(req["id"])
        out = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(req["argv"])
            error = None
        except (Exception, SystemExit) as exc:  # a crash is a failed request
            code, error = None, f"raised {exc!r}"
        result.latencies.append(clock() - start)
        if error is None:
            try:
                record = json.loads(out.getvalue())
                if tamper is not None:
                    tamper(req, record)
                error = oracle.check(req, record)
                if error is None and code != 0:
                    error = f"exit code {code}"
            except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                error = f"malformed record: {exc!r}"
        if error is not None:
            result.failures.append((req["id"], error))
        i += 1
    result.wall_s = clock() - t0
    return result


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, pct in [0, 100]."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


@functools.cache
def visible_count(Nj: int, Nk: int) -> int:
    """Coprime pairs in [1, Nj] x [1, Nk], by Moebius inversion.

    Computed here rather than with xyyx.vpv.count_visible, so that the
    normalisation of ns_per_point does not depend on the code under test.
    """
    n = min(Nj, Nk)
    mu = [1] * (n + 1)
    is_comp = [False] * (n + 1)
    for p in range(2, n + 1):
        if not is_comp[p]:
            for m in range(2 * p, n + 1, p):
                is_comp[m] = True
            for m in range(p, n + 1, p):
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return sum(mu[d] * (Nj // d) * (Nk // d) for d in range(1, n + 1))


def layer_metrics(summary: dict, untraced: Pass, traced: Pass) -> dict[str, float]:
    empty = {"calls": 0, "self_ns": 0, "logs": 0, "notes": []}
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        s = summary.get(span, empty)
        if stat == "calls":
            values[name] = s["calls"]
        elif stat == "self_s":
            values[name] = s["self_ns"] / 1e9
        elif stat == "logs":
            values[name] = s["logs"]
        elif stat == "ns_per_point":
            points = sum(visible_count(*box) for box in s["notes"])
            values[name] = s["self_ns"] / points if points else 0.0
    quads = summary.get("transforms.verify_quad_transform", empty)
    fallbacks = quads["notes"].count("infeasible-truncation")
    values["transforms.fallback_ratio"] = fallbacks / quads["calls"] if quads["calls"] else 0.0
    u_rps = len(untraced.latencies) / untraced.wall_s
    t_rps = len(traced.latencies) / traced.wall_s
    values["trace.untraced_throughput_rps"] = u_rps
    values["trace.traced_throughput_rps"] = t_rps
    values["trace.overhead_ratio"] = u_rps / t_rps
    return {name: values[name] for name, _ in PER_LAYER}


def _totals(passes: list[Pass]) -> tuple[int, int]:
    """Requests attempted and failed over all passes, warm-up included."""
    return sum(len(p.latencies) for p in passes), sum(len(p.failures) for p in passes)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    xyyx = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    # the environment must not change the requests' precision
    os.environ.pop("VPV_PRECISION_BITS", None)
    cli = xyyx.cli
    facts = machine_facts(args.seed)
    requests = workloads.generate(args.workload, args.seed)
    report: dict = {"workload": args.workload, "seconds": args.seconds,
                    "trace": args.trace, "machine": facts}
    lines = [f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             "machine " + json.dumps(facts)]
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        setup = measure_setup()
    warmup = workloads.warmup(args.workload)
    warm = run_pass(cli, warmup, count=len(warmup))
    passes = [warm]
    if args.trace == 0:
        main_pass = run_pass(cli, requests, seconds=args.seconds,
                             round_len=len(workloads.WORKLOADS[args.workload]))
        passes.append(main_pass)
        attempted, failed = _totals(passes)
        lat = sorted(main_pass.latencies)
        n = len(lat)
        pct = TAIL_PERCENTILE[args.workload]
        tail = percentile(lat, pct)
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_rps": n / main_pass.wall_s,
            "latency_p50_s": percentile(lat, 50),
            "latency_tail_s": tail,
            "success_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        report["tail"] = {"percentile": pct, "samples": n, "beyond": sum(v > tail for v in lat)}
        report["setup_launches_s"] = setup
    else:
        count = max(2, round(args.seconds / 2 / MEAN_REQUEST_S[args.workload]))
        count = min(count, MAX_TRACED_REQUESTS)
        untraced = run_pass(cli, requests, count=count)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, requests, count=count,
                              on_request=lambda rid: setattr(tracer, "request", rid))
        finally:
            tracer.uninstall()
        passes += [untraced, traced]
        attempted, failed = _totals(passes)
        metrics = layer_metrics(tracer.summary(), untraced, traced)
        units = dict(PER_LAYER)
        span_file = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(span_file)
        report["traced_requests"] = count
        report["spans"] = len(tracer.spans)
        report["span_file"] = str(span_file.relative_to(ROOT))

    failures = [f for p in passes for f in p.failures]
    for rid, why in failures[:10]:
        lines.append(f"FAILED request {rid}: {why}")
    for name, value in metrics.items():
        extra = ""
        if name == "latency_tail_s":
            t = report["tail"]
            extra = f"  (p{t['percentile']}, {t['samples']} samples, {t['beyond']} beyond)"
        lines.append(f"  {name:<44} {value:.6g} {units[name]}{extra}")
    lines.append(f"  {'failed_ratio':<44} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    report.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                  failures=failures, metrics=metrics)
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
