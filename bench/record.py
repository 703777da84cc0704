"""Record the benchmark's end-to-end metrics into one JSON file.

    python3 bench/record.py --out BENCH_<n>.json [--compare BENCH_<m>.json]
    python3 bench/record.py --read BENCH_<n>.json --compare BENCH_<m>.json

Run from anywhere in a pocketcube checkout.  For each of seeds 1-5, and
each workload in turn, it runs `perfbench/run.py --workload W --seed S
--seconds 15 --trace 0` unchanged, one run at a time, and reads the result
file the run writes to `perfbench/out/`: its verdict, metrics and host.  The record holds, per workload, the median and
quartiles of each end-to-end metric over the seeds, every run's values, and
whether every run was correct; plus the host, the git commit and the
line count of each module under `src/`.  `--compare` prints, for each
metric, the ratio of this record's median to an earlier record's, and marks
a median that falls outside the earlier record's quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"
RESULTS = ROOT / "perfbench" / "out"
WORKLOADS = ("tables", "solve", "eval")
SECONDS = 15  # the run length BENCHMARK.json declares
SEEDS = (1, 2, 3, 4, 5)  # a median and quartiles need a few runs on a noisy host


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method); one value is all three."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """One workload's record from its runs' result files, in seed order."""
    names = list(runs[0]["metrics"])
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         **quartiles(values), "values": values}
    return {"runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}


def src_lines(root: Path = ROOT) -> dict[str, int]:
    """Line count of each module under src/, by its path there, and the total."""
    src = root / "src"
    counts = {p.relative_to(src).as_posix(): len(p.read_text().splitlines())
              for p in sorted(src.rglob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def compare(new: dict, old: dict) -> list[str]:
    """One line per metric of each workload in both records: old and new
    medians, their ratio, and `*` where the new median lies outside the
    old record's quartiles."""
    lines = []
    for workload, rec in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for name, m in rec["metrics"].items():
            b = before["metrics"].get(name)
            if b is None:
                continue
            ratio = m["median"] / b["median"] if b["median"] else float("nan")
            outside = "*" if not b["q1"] <= m["median"] <= b["q3"] else " "
            lines.append(f"{workload:<7} {name:<12} {b['median']:>12.4g} -> "
                         f"{m['median']:<12.4g} {m['unit']:<4} x{ratio:.3f} {outside}")
    return lines


def run_one(workload: str, seed: int) -> dict:
    """The result file of one perfbench run."""
    argv = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads((RESULTS / f"result-{workload}-s{seed}-t0.json").read_text())


def record() -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    host = None
    for seed in SEEDS:  # seed-major, so host drift spreads over every workload
        for w in WORKLOADS:
            result = run_one(w, seed)
            runs[w].append(result)
            host = result["host"]
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return {"host": host, "commit": host["git_commit"], "src_lines": src_lines(),
            "seconds": SECONDS, "seeds": list(SEEDS),
            "workloads": {w: summarize(r) for w, r in runs.items()}}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--out", type=Path, help="run the benchmark and write the record here")
    source.add_argument("--read", type=Path, help="an earlier record, instead of running")
    p.add_argument("--compare", type=Path, help="an earlier record to print ratios against")
    args = p.parse_args(argv)
    if args.read:
        rec = json.loads(args.read.read_text())
    else:
        rec = record()
        args.out.write_text(json.dumps(rec, indent=1) + "\n")
    if args.compare:
        print("\n".join(compare(rec, json.loads(args.compare.read_text()))))
    return 0 if all(w["correct"] for w in rec["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
