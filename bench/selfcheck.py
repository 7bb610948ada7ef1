"""Self-check of the benchmark itself (about a minute on two cores).

    python3 bench/selfcheck.py

Asserts that:
  * BENCHMARK.json declares exactly the metrics run.py prints, with the same units;
  * the same seed gives a byte-identical request list, across hash seeds;
  * a tiny run of every workload, untraced and traced, prints every metric
    with its unit and a final line with exactly the contract's keys;
  * the exact counts of two traced runs with the same seed are identical;
  * a corrupted record (a flipped verdict) is counted as failed;
  * without src/ next to it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ["vpv.eval_product.logs", "exact.is_prime.calls", "vpv.tail_bound.calls",
                "transforms.fallback_ratio"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def last_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def check_determinism() -> None:
    code = ("import hashlib, json, sys; sys.path.insert(0, 'bench'); import workloads; "
            "print(hashlib.sha256(json.dumps([workloads.generate(w, int(sys.argv[1])) "
            "for w in workloads.WORKLOADS]).encode()).hexdigest())")
    digests = []
    for hash_seed, seed in (("1", "7"), ("2", "7"), ("1", "8")):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-c", code, seed], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1], "same seed, different request lists"
    assert digests[0] != digests[2], "different seeds, same request list"


def check_tiny_runs() -> None:
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
            result = last_line(done)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert [(k, v["unit"]) for k, v in result["metrics"].items()] == declared
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            text = done.stdout
            for name, unit in [*declared, ("failed_ratio", "ratio")]:
                assert any(line.split()[:1] == [name] and f" {unit}" in line
                           for line in text.splitlines()), f"{name} not printed with {unit}"
            if trace == 1:
                again = last_line(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                        "--trace", "1"))["metrics"]
                for name in EXACT_COUNTS + [n for n, u in run.PER_LAYER if n.endswith(".calls")]:
                    assert again[name] == result["metrics"][name], f"{workload}: {name} differs"
        print(f"tiny runs ok: {workload}", flush=True)


def check_corruption_counted() -> None:
    xyyx = run.import_program()
    lattice = workloads.warmup("lattice")[:3]  # anchor vpv-eval, a pair transform, a vpv-eval
    exact = workloads.generate("exact-mix", 5, rounds=1)

    def flip(req, record):
        res = record["results"]
        if req["expect"]["kind"] in ("pair", "quad"):
            res["numeric"]["verdict"] = not res["numeric"]["verdict"]
        elif req["expect"]["kind"] == "verify":
            res["verified"] = not res["verified"]
        elif req["expect"]["kind"] == "vpv":
            res["log_value"]["hex"] = "0x1p+0"

    for reqs in (lattice, exact):
        clean = run.run_pass(xyyx.cli, reqs, count=len(reqs))
        assert not clean.failures, clean.failures
        corrupted = run.run_pass(xyyx.cli, reqs, count=len(reqs), tamper=flip)
        expected = {r["id"] for r in reqs if r["expect"]["kind"] in ("pair", "quad", "verify", "vpv")}
        assert {rid for rid, _ in corrupted.failures} == expected, corrupted.failures
    print("corrupted records are counted as failed", flush=True)


def check_without_program() -> None:
    bare = BENCH / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("--workload", "exact-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0 and '"correct"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare)
    print("bare directory: non-zero exit, no result", flush=True)


def main() -> int:
    check_spec()
    check_determinism()
    print("spec and request lists ok", flush=True)
    check_corruption_counted()
    check_without_program()
    check_tiny_runs()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
