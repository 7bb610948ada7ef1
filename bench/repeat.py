"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 bench/repeat.py --workload lattice --seeds 1-10 [--out FILE]

For every metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median beside
the metric's bound from BENCHMARK.json.  Runs are sequential, one process at
a time.  --out appends one JSON line per workload with the summary and every
run's values and machine facts, which is how bench/baseline.jsonl was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            lines = done.stdout.strip().splitlines()
            machine = json.loads(next(ln for ln in lines if ln.startswith("machine "))[8:])
            last = json.loads(lines[-1])
            ok = ok and last["correct"]
            wall = time.monotonic() - start
            runs.append({"seed": seed, "wall_s": wall, "machine": machine, "attempted": last["attempted"],
                         "failed": last["failed"], **{k: v["value"] for k, v in last["metrics"].items()}})
            print(f"{workload} seed {seed} ({wall:.1f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "ok" if spread <= metric["bound"] / 3 else ("WIDE" if spread > metric["bound"] else "over 1/3")
            print(f"  {name:<16} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {spread:.4f}  bound {metric['bound']}  {flag}", flush=True)
        if args.out:
            with args.out.open("a") as f:
                f.write(json.dumps({"workload": workload, "summary": summary, "runs": runs}) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
