"""Record the benchmark's end-to-end metrics into one JSON file.

    python3 bench/record.py --out BENCH_<n>.json [--compare BENCH_<m>.json]
    python3 bench/record.py --read BENCH_<n>.json --compare BENCH_<m>.json

Run from anywhere in a pocketcube checkout.  For each of seeds 1-5, and
each workload in turn, it runs `perfbench/run.py --workload W --seed S
--seconds 15 --trace 0` unchanged, one run at a time, and reads the result
file the run writes to `perfbench/out/`: its verdict, metrics and host.
Then it times fresh CLI processes, each command CLI_RUNS times from source
and from bytecode, with `python -c "import numpy"` as the floor, and the
tier-1 test command once.  The record holds, per workload, the median and
quartiles of each end-to-end metric over the seeds, every run's values, and
whether every run was correct, and for `tables` the same of each run's raw
build and verify seconds, so that a record shows which phase moved; the
median, quartiles and runs of each CLI command's wall time; the tier-1 wall
time and counts; plus the host, the git commit and the line count of each
module under `src/`.  `--compare` prints, for each metric and phase, the
ratio of this record's median to an earlier record's, and each module's
line count in both records, under a warning: two records taken apart in
time measure the host's drift as well as the code, so no ratio is marked
as a change.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"
RESULTS = ROOT / "perfbench" / "out"
WORKLOADS = ("tables", "solve", "eval")
SECONDS = 15  # the run length BENCHMARK.json declares
SEEDS = (1, 2, 3, 4, 5)  # a median and quartiles need a few runs on a noisy host
# the per-phase medians of a `tables` run, raw seconds, from its result file's `named`
PHASES = ("build_s_raw", "verify_s_raw")

# fresh processes per CLI command and form; {tables} is the run's table directory,
# which build-tables rewrites with the same bytes
CLI_RUNS = 9
CLI = ["-m", "pocketcube.cli", "--tables", "{tables}"]
CLI_COMMANDS = {
    "import numpy": ["-c", "import numpy"],
    "solve": CLI + ["solve", "--scramble", "R U F' L B' R"],
    "solve --planner oracle": CLI + ["solve", "--scramble", "R U F' L B' R",
                                     "--planner", "oracle"],
    "verify": CLI + ["verify"],
    "scramble": CLI + ["scramble", "--distance", "7", "--count", "5", "--seed", "1"],
    "simulate": CLI + ["simulate", "--scramble", "R U F' L B' R", "--seed", "1"],
    "build-tables": ["-m", "pocketcube.cli", "build-tables", "--out", "{tables}"],
}
# a copy of src/ run as it is, and one compiled first: PYTHONDONTWRITEBYTECODE
# keeps the first from caching bytecode as it runs
FORMS = ("source", "bytecode")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]

# records taken apart in time have differed by a quarter on a median whose
# code did not change; only alternating runs of both trees tell a change
# from the host's drift
DRIFT_WARNING = ("warning: these records were not taken as alternating pairs; each ratio "
                 "holds the host's drift between them as well as any change in the code")


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
    phases = {}
    for name in (n for n in PHASES if n in runs[0].get("named", {})):
        values = [r["named"][name][0] for r in runs]
        phases[name] = {"unit": runs[0]["named"][name][1], **quartiles(values), "values": values}
    return {"runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "phases": phases}


def src_lines(root: Path = ROOT) -> dict[str, int]:
    """Line count of each module under src/, by its path there, and the total."""
    src = root / "src"
    counts = {p.relative_to(src).as_posix(): len(p.read_text().splitlines())
              for p in sorted(src.rglob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def summarize_cli(times: dict[str, dict[str, list[float]]]) -> dict:
    """The CLI record from each command's wall times in ms, by form."""
    return {"runs": CLI_RUNS, "unit": "ms",
            "commands": {name: {form: {**quartiles(values), "values": values}
                                for form, values in forms.items()}
                         for name, forms in times.items()}}


def summarize_tier1(output: str, seconds: float) -> dict:
    """Wall seconds and the counts on pytest's closing line, such as
    '345 passed, 2 failed in 38.72s'."""
    closing = (output.strip().splitlines() or [""])[-1]
    counts = re.findall(r"(\d+) (\w+)", closing)
    return {"seconds": seconds, "passed": 0, **{word: int(n) for n, word in counts}}


def _line(section: str, name: str, b: dict, m: dict, unit: str) -> str:
    """Old and new medians and their ratio."""
    ratio = m["median"] / b["median"] if b["median"] else float("nan")
    return (f"{section:<7} {name:<12} {b['median']:>12.4g} -> "
            f"{m['median']:<12.4g} {unit:<4} x{ratio:.3f}")


def compare(new: dict, old: dict) -> list[str]:
    """One line per metric and phase of each workload, per CLI command and
    form, per tier-1 figure and per module line count that both records hold."""
    lines = []
    for workload, rec in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        old_values = {**before["metrics"], **before.get("phases", {})}
        for name, m in {**rec["metrics"], **rec.get("phases", {})}.items():
            b = old_values.get(name)
            if b is not None:
                lines.append(_line(workload, name, b, m, m["unit"]))
    old_cli = old.get("cli", {}).get("commands", {})
    for name, forms in new.get("cli", {}).get("commands", {}).items():
        for form, m in forms.items():
            b = old_cli.get(name, {}).get(form)
            if b is not None:
                lines.append(_line("cli", f"{name} ({form})", b, m, "ms"))
    if "tier1" in new and "tier1" in old:
        for key, unit in (("seconds", "s"), ("passed", "")):
            b, m = quartiles([old["tier1"][key]]), quartiles([new["tier1"][key]])
            lines.append(_line("tier1", key, b, m, unit))
    old_src = old.get("src_lines", {})
    for name, n in new.get("src_lines", {}).items():
        if name in old_src:
            lines.append(_line("src", name, quartiles([old_src[name]]), quartiles([n]), ""))
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


def _wall_ms(argv: list[str], tree: Path, cwd: Path) -> float:
    """Wall time of one fresh `python argv` with `tree` as its only
    PYTHONPATH entry; a failed run raises."""
    env = dict(os.environ, PYTHONPATH=str(tree), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True)
    ms = (time.perf_counter() - start) * 1e3
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return ms


def time_cli() -> dict:
    """CLI_RUNS fresh processes of each command in each form, round-robin, so
    host drift spreads over every command, on tables built for the run."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for form in FORMS:
            shutil.copytree(ROOT / "src", tmp / form,
                            ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(tmp / "bytecode", quiet=1)
        argvs = {name: [a.format(tables=tmp / "tables") for a in argv]
                 for name, argv in CLI_COMMANDS.items()}
        _wall_ms(argvs["build-tables"], tmp / "source", tmp)
        times = {name: {form: [] for form in FORMS} for name in CLI_COMMANDS}
        for _ in range(CLI_RUNS):
            for name, argv in argvs.items():
                for form in FORMS:
                    times[name][form].append(_wall_ms(argv, tmp / form, tmp))
    return summarize_cli(times)


def time_tier1() -> dict:
    """One run of the tier-1 command on this checkout's src/."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return summarize_tier1(proc.stdout, time.perf_counter() - start)


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
    cli = time_cli()
    print("cli: " + "  ".join(f"{name}={c['source']['median']:.0f}/{c['bytecode']['median']:.0f}"
                              for name, c in cli["commands"].items()) + " ms", flush=True)
    tier1 = time_tier1()
    print(f"tier1: {tier1['passed']} passed in {tier1['seconds']:.1f} s", flush=True)
    return {"host": host, "commit": host["git_commit"], "src_lines": src_lines(),
            "seconds": SECONDS, "seeds": list(SEEDS),
            "workloads": {w: summarize(r) for w, r in runs.items()},
            "cli": cli, "tier1": tier1}


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
        print("\n".join([DRIFT_WARNING, *compare(rec, json.loads(args.compare.read_text()))]))
    return 0 if all(w["correct"] for w in rec["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
