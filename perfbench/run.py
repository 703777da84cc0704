"""pocketcube benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload {tables,solve,eval} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; it needs only Python and numpy.  Each
workload runs in fresh interpreters started one after another, with
numeric-library threads pinned to 1 (see workloads.py).  ``--trace 0``
measures the end-to-end metrics, at the host's reference speed
(hostspeed.py): the timed seconds are split over three fresh
interpreters, each running a closed loop of operations after its set-up,
and set-up time is the median of the three.  ``--trace 1`` runs one round
of the workload's operations traced (tracing.py) and reports the
per-layer metrics (layers.py).

Human-readable lines come first, with the host, the metrics under the
names README.md uses, raw times, and the output checks; the last line is
the JSON object.  Table files that solve and eval load are built once per
checkout under perfbench/out/, which also receives a result file per run
and the spans of traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TABLES = OUT / "tables"
DEADLINE_S = 170  # a run must end within 180 s, children included
PROCESSES = 3  # fresh interpreters per timed run; set-up time is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Children:
    """Starts the benchmark's child processes one at a time, under one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        **{v: "1" for v in THREAD_VARS})

    def call(self, argv: list[str]) -> tuple[str, float]:
        """Run argv to its end; returns its stdout and the time it was started."""
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + " ".join(argv[1:4]))
        started = monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(argv[1:4])} did not end in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return proc.stdout, started

    def workload(self, role: str, seconds: float, *flags: str) -> dict:
        a = self.args
        stdout, started = self.call([
            sys.executable, str(BENCH / "child.py"), "--workload", a.workload,
            "--seed", str(a.seed), "--seconds", str(seconds), "--role", role,
            "--tables", str(TABLES), "--out", str(OUT), *flags])
        result = json.loads(stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - started
        return result

    def ensure_tables(self) -> list[str]:
        """Build the table files once per checkout; problems if they differ."""
        want = json.loads((BENCH / "reference.json").read_text())["table_sha256"]

        def matching() -> bool:
            return all((TABLES / n).is_file() and sha256(TABLES / n) == d
                       for n, d in want.items())

        if matching():
            return []
        self.call([sys.executable, "-m", "pocketcube.cli", "build-tables", "--out", str(TABLES)])
        return [] if matching() else ["built table files differ from the reference"]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(children: Children, seconds: float) -> tuple[dict, dict, list[dict]]:
    """End-to-end metrics at the reference host speed, the printed ones, the children."""
    if children.args.workload == "tables":
        # one cycle per process (see workloads.Tables): more set-up samples
        # come from processes that stop after set-up, more cycles from
        # further processes while they fit in the seconds
        setup_only = [children.workload("setup", seconds) for _ in range(PROCESSES - 1)]
        mains = [children.workload("main", seconds, "--reference")]
        while True:
            spent = sum(sum(m["op_s"]) for m in mains)
            if spent * (len(mains) + 1) / len(mains) > seconds:
                break
            mains.append(children.workload("main", seconds))
    else:
        # the seconds are split over the processes, so that their operations
        # fall in separate stretches of the host's speed swings
        setup_only = []
        mains = [children.workload("main", seconds / PROCESSES, "--part", str(part))
                 for part in range(PROCESSES - 1)]
        mains.append(children.workload("main", seconds / PROCESSES,
                                       "--part", str(PROCESSES - 1), "--reference"))
    setups = setup_only + mains
    raw = {"setup_s": statistics.median(r["setup_s"] for r in setups),
           "op_s": [t for m in mains for t in m["op_s"]]}
    ref = {"setup_s": statistics.median((r["setup_s"] - r["setup_probe_s"]) * r["setup_factor"]
                                        for r in setups),
           "op_s": [t * m["ops_factor"] for m in mains for t in m["op_s"]]}
    items = sum(m["items"] for m in mains)
    for v in (raw, ref):
        v["op_ms_p50"] = statistics.median(v["op_s"]) * 1e3
        v["op_ms_p90"] = percentile(v["op_s"], 90) * 1e3
        v["items_per_s"] = items / sum(v["op_s"])
    metrics = {"setup_s": ref["setup_s"],
               "peak_rss_mb": max(m["peak_rss_mb"] for m in mains),
               "op_ms_p50": ref["op_ms_p50"],
               "op_ms_p90": ref["op_ms_p90"],
               "items_per_s": ref["items_per_s"]}

    names = {"setup_s": ("setup_s", "s")}
    if children.args.workload == "tables":
        names.update(op_ms_p50=("cycle_ms", "ms"), items_per_s=("states_per_s", "1/s"))
    elif children.args.workload == "solve":
        names.update(op_ms_p50=("solve_ms_p50", "ms"), op_ms_p90=("solve_ms_p90", "ms"),
                     items_per_s=("solves_per_s", "1/s"))
    else:
        names.update(op_ms_p50=("experiment_ms_p50", "ms"),
                     items_per_s=("episodes_per_s", "1/s"))
    named = {}
    for key, (name, unit) in names.items():
        named[name] = (ref[key], unit)
        named[name + "_raw"] = (raw[key], unit)
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    for phase in mains[0]["phase_s"]:  # build_s and verify_s of tables, raw
        named[phase + "_raw"] = (statistics.median(t for m in mains for t in m["phase_s"][phase]),
                                 "s")
    named["host_speed"] = (sorted(round(m["ops_factor"], 3) for m in mains), "x reference")
    named["ops"] = (len(ref["op_s"]), "count")
    return metrics, named, mains


def trace(children: Children, code: str) -> tuple[dict, dict, list[dict], list[str]]:
    """Per-layer metrics from one traced round; exact counts compared across runs."""
    traced = children.workload("main", 0, "--trace", "--reference")
    metrics = traced["per_layer"]
    named = {"absent_metrics": (traced["absent"], ""),
             "missing_functions": (traced["missing_functions"], ""),
             "trace.overhead_pct": (metrics["trace.overhead_pct"], "%")}

    # the same code and seed must give the same exact counts on every run
    counts = {k: metrics[k] for k in layers.EXACT_COUNTS}
    path = OUT / f"counts-{children.args.workload}-s{children.args.seed}-{code}.json"
    problems = []
    if path.is_file():
        before = json.loads(path.read_text())
        differ = [f"{k} {before.get(k)} -> {v}" for k, v in counts.items() if before.get(k) != v]
        if differ:
            problems.append("benchmark defect: exact counts differ from an earlier run: "
                            + ", ".join(differ))
        named["counts_repeat"] = (not differ, "")
    else:
        path.write_text(json.dumps(counts, indent=1) + "\n")
    return metrics, named, [traced], problems


def tree_sha256(root: Path, patterns: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for pattern in patterns for p in root.glob(pattern)):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host(numpy_version: str, src_sha256: str, bench_sha256: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a checkout without it has only src_sha256
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit,
            "src_sha256": src_sha256, "bench_sha256": bench_sha256}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("tables", "solve", "eval"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (SRC / "pocketcube" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a pocketcube checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    src_sha256 = tree_sha256(SRC, ("pocketcube/**/*.py",))
    bench_sha256 = tree_sha256(BENCH, ("*.py", "reference.json"))

    children = Children(args)
    try:
        problems = [] if args.workload == "tables" else children.ensure_tables()
        if args.trace:
            metrics, named, runs, more = trace(children, src_sha256[:8] + bench_sha256[:8])
            problems += more
        else:
            metrics, named, runs = measure(children, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = sorted({m["name"] for m in declared} - metrics.keys())
    if missing:
        print(f"error: benchmark defect, no value for {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs) + len(problems)
    failed = sum(r["failed"] for r in runs) + len(problems)
    self_check = all(r["self_check_counted"] for r in runs
                     if r["self_check_counted"] is not None)
    named["op_fail_frac"] = (failed / attempted, "")
    info = host(runs[0]["numpy"], src_sha256, bench_sha256)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in named.items():
        print(f"  {name:<22} {value} {unit}".rstrip())
    print(f"  checked operations: {attempted}, failed: {failed}")
    for msg in [m for r in runs for m in r["problems"]] + problems:
        print(f"  FAILED {msg}")
    print(f"  self-check: a deliberately wrong output was counted as failed: "
          f"{'yes' if self_check else 'NO'}")

    final = {
        "correct": failed == 0 and self_check,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"args": vars(args), "host": info, "named": named, **final}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
