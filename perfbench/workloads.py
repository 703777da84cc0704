"""One benchmark workload in one fresh interpreter, entered through child.py.

Started by perfbench/run.py with PYTHONPATH pointing at the program's
sources and numeric-library threads pinned to 1.  Role ``setup`` imports,
loads and warms up, then exits; role ``main`` goes on to run operations in
a closed loop with a single caller, checks every output, and prints one
JSON object as the last line of standard output.  ``ready`` in that object
is the CLOCK_MONOTONIC time at which the first timed operation began, so
the parent can take the set-up time from its own spawn time.  Untraced
processes sample the host's speed throughout (hostspeed.py) and report
the factors that rescale their set-up and operation times.

The end-to-end path calls only what the program's roadmap freezes:
``cli.main``, ``DistanceTable.load``/``PatternDB.load``, ``ida_star``,
``oracle_solve``, ``run_experiment`` and ``random_canonical``; the output
checks use the public cube helpers as well.  Every call goes through the
module attribute, so that the traced run sees it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import layers
import tracing
from pocketcube import cli, cube, evaluate, solver, tables

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
TABLE_FILES = ("distance_qtm.bin", "pdb_ori.bin", "pdb_perm.bin")
DISTANCES = 14  # the default experiment covers distances 1..14, both modes
WARMUP_SEED = 20190726  # any seed apart from the measured and reference streams


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its output captured; returns (exit code, stdout + stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse and the CLI's own 'error:' exits
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


class Checks:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[:3])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up, one round of timed operations, their checks and a self-check.

    `round` returns the latency of each operation it timed and the number
    of work items they did.  A timed run repeats rounds while the next one
    is likely to end within --seconds; a traced run runs one round.
    `self_check` hands the checker a deliberately wrong output, which must
    come back counted as one failed operation.
    """

    one_round_per_process = False

    def __init__(self, args, checks: Checks, untraced, clock):
        self.args, self.checks, self.untraced, self.clock = args, checks, untraced, clock
        self.phase_s: dict[str, list[float]] = {}

    def load(self):
        d = Path(self.args.tables)
        self.table = tables.DistanceTable.load(d / TABLE_FILES[0])
        self.pdb = tables.PatternDB.load(d / TABLE_FILES[1], d / TABLE_FILES[2])
        self.file_bytes = sum((d / f).stat().st_size for f in TABLE_FILES)

    def reference(self):
        """Untimed: a fixed input whose output must match the reference."""

    def scratch_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.args.out))


class Tables(Workload):
    """build-tables into a temp dir, reload the three files, verify --full.

    The program caches its successor matrix per process, so a second cycle
    in one interpreter would skip work that a user's fresh command pays
    for: each process runs exactly one cycle, and run.py starts as many
    processes as the run's seconds hold.
    """

    one_round_per_process = True

    def __init__(self, *a):
        super().__init__(*a)
        self.phase_s = {"build_s": [], "verify_s": []}

    def load(self):
        pass  # this workload writes its own tables

    def warmup(self):
        # the CLI and its loader's error path, on a directory with no tables
        empty = self.scratch_dir()
        try:
            run_cli(["--tables", str(empty), "verify"])
        finally:
            shutil.rmtree(empty)

    def round(self, i: int) -> tuple[list[float], int]:
        out = self.scratch_dir()
        try:
            t0 = self.clock()
            build_code, _ = run_cli(["build-tables", "--out", str(out)])
            t1 = self.clock()
            table = tables.DistanceTable.load(out / TABLE_FILES[0])
            tables.PatternDB.load(out / TABLE_FILES[1], out / TABLE_FILES[2])
            t2 = self.clock()
            verify_code, verify_text = run_cli(["--tables", str(out), "verify", "--full"])
            t3 = self.clock()
            self.files = {name: (out / name).read_bytes() for name in TABLE_FILES}
        finally:
            shutil.rmtree(out)
        self.phase_s["build_s"].append(t1 - t0)
        self.phase_s["verify_s"].append(t3 - t2)
        self.file_bytes = sum(len(blob) for blob in self.files.values())
        self.histogram = table.histogram
        self.checks.record(self.problems(self.files, build_code, self.histogram,
                                         verify_code, verify_text))
        return [t3 - t0], sum(self.histogram)

    @staticmethod
    def problems(files: dict[str, bytes], build_code, histogram, verify_code,
                 verify_text) -> list[str]:
        found = []
        if build_code != 0:
            found.append(f"build-tables exited {build_code}")
        for name in TABLE_FILES:
            if sha256_bytes(files[name]) != REFERENCE["table_sha256"][name]:
                found.append(f"{name} differs from the reference build")
        if list(histogram) != REFERENCE["histogram"]:
            found.append(f"histogram {list(histogram)}")
        lines = [ln for ln in verify_text.splitlines() if ln.strip()]
        if verify_code != 0 or not lines or not all(ln.startswith("PASS") for ln in lines):
            found.append(f"verify --full exited {verify_code}: {verify_text.strip()[-200:]}")
        return found

    def self_check(self, checks: Checks) -> None:
        blob = bytearray(self.files[TABLE_FILES[0]])
        blob[len(blob) // 2] ^= 1  # one flipped bit in the payload
        wrong = dict(self.files, **{TABLE_FILES[0]: bytes(blob)})
        checks.record(self.problems(wrong, 0, self.histogram, 0, "PASS  all"))


class Solve(Workload):
    """IDA* on uniformly random canonical states, cross-checked by the oracle.

    A round is a batch of BATCH states drawn with random_canonical and kept
    until each distance holds its share of the state space, rounded: the
    depth mix of a scrambled cube, without the run-to-run swing in the
    share of slow deep states that plain draws of this size would bring.
    """

    BATCH = 400  # >= 100, so p90 has at least ten samples beyond it

    def __init__(self, *a):
        super().__init__(*a)
        self.rng = np.random.default_rng([self.args.seed, self.args.part])

    def warmup(self):
        state = cube.random_canonical(np.random.default_rng(WARMUP_SEED))
        solver.ida_star(state, self.pdb)
        solver.oracle_solve(state, self.table)

    def batch(self) -> list:
        hist = self.table.histogram
        exact = [self.BATCH * n / sum(hist) for n in hist]
        need = [int(x) for x in exact]
        by_remainder = sorted(range(len(exact)), key=lambda d: need[d] - exact[d])
        for d in by_remainder[:self.BATCH - sum(need)]:
            need[d] += 1
        states = []
        while len(states) < self.BATCH:
            state = cube.random_canonical(self.rng)
            d = self.table.distance(state)
            if need[d]:
                need[d] -= 1
                states.append(state)
        return states

    def round(self, i: int) -> tuple[list[float], int]:
        with self.untraced():
            states = self.batch()
        latencies = []
        for state in states:
            t0 = self.clock()
            result = solver.ida_star(state, self.pdb)
            latencies.append(self.clock() - t0)
            with self.untraced():
                self.checks.record(self.problems(state, result.solution))
        return latencies, len(states)

    def problems(self, state, solution) -> list[str]:
        found = []
        if not cube.is_solved(cube.apply_seq(state, solution)):
            found.append(f"{cube.format_moves(solution)!r} does not solve rank {state.rank}")
        want = self.table.distance(state)
        oracle = len(solver.oracle_solve(state, self.table))
        if not len(solution) == want == oracle:
            found.append(f"rank {state.rank}: length {len(solution)}, table {want}, "
                         f"oracle {oracle}")
        return found

    def reference(self):
        ref = REFERENCE["solve"]
        rng = np.random.default_rng(ref["seed"])
        lines, problems = [], []
        for _ in range(ref["states"]):
            state = cube.random_canonical(rng)
            solution = solver.ida_star(state, self.pdb).solution
            problems += self.problems(state, solution)
            lines.append(cube.format_moves(solution) + "\n")
        if sha256_bytes("".join(lines).encode()) != ref["solutions_sha256"]:
            problems.append("reference batch: solution digest differs")
        self.checks.record(problems)

    def self_check(self, checks: Checks) -> None:
        state = cube.random_canonical(np.random.default_rng(WARMUP_SEED))
        wrong = solver.oracle_solve(state, self.table)[:-1]  # one move short
        checks.record(self.problems(state, wrong))


class Eval(Workload):
    """run_experiment with the default config, as `pocketcube eval` runs it."""

    csv = b""

    def warmup(self):
        solver.oracle_solve(cube.random_canonical(np.random.default_rng(WARMUP_SEED)),
                            self.table)
        evaluate.run_experiment(
            evaluate.ExperimentConfig(trials_per_distance=2, master_seed=WARMUP_SEED),
            self.table)

    def round(self, i: int) -> tuple[list[float], int]:
        config = evaluate.ExperimentConfig(
            master_seed=self.args.seed * 1000 + self.args.part * 100 + i)
        t0 = self.clock()
        result = evaluate.run_experiment(config, self.table)
        elapsed = self.clock() - t0
        self.checks.record(self.problems([(r.distance, r.mode.value, r.sr)
                                          for r in result.rows]))
        return [elapsed], sum(r.trials for r in result.rows)

    @staticmethod
    def problems(rows) -> list[str]:
        sr = {(d, mode): s for d, mode, s in rows}
        found = []
        if len(rows) != 2 * DISTANCES or len(sr) != len(rows):
            found.append(f"{len(rows)} (distance, mode) rows, expected {2 * DISTANCES}")
        for d in sorted({d for d, _, _ in rows}):
            if sr.get((d, "rollback"), -1.0) < sr.get((d, "open_loop"), 2.0):
                found.append(f"distance {d}: rollback SR below open-loop SR")
        return found

    def csv_problems(self, blob: bytes) -> list[str]:
        rows = []
        try:
            for line in blob.decode().splitlines()[1:]:
                fields = line.split(",")
                rows.append((int(fields[0]), fields[1], float(fields[3])))
        except (UnicodeDecodeError, ValueError, IndexError) as err:
            return [f"eval CSV unreadable: {err}"]
        found = self.problems(rows)
        if sha256_bytes(blob) != REFERENCE["eval_csv_sha256"]:
            found.append("eval CSV differs from the reference")
        return found

    def reference(self):
        out = self.scratch_dir()
        try:
            code, text = run_cli(["--tables", self.args.tables, "eval",
                                  "--out", str(out / "eval.csv"), "--quiet"])
            if code != 0:
                self.checks.record([f"eval exited {code}: {text.strip()[-200:]}"])
                return
            self.csv = (out / "eval.csv").read_bytes()
            self.checks.record(self.csv_problems(self.csv))
        finally:
            shutil.rmtree(out)

    def self_check(self, checks: Checks) -> None:
        # the rollback row of distance 1 claims SR 0: the digest and the order break
        wrong = self.csv.replace(b"1,rollback,100,1.0000,", b"1,rollback,100,0.0000,", 1)
        checks.record(self.csv_problems(wrong))


WORKLOADS = {"tables": Tables, "solve": Solve, "eval": Eval}


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

def run(args, host) -> dict:
    tracer = tracing.Tracer(layers.OBSERVERS) if args.trace else None
    if tracer:
        host.stop()  # its probes would land in the layers' self times
        tracer.install()
    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    untraced = tracer.paused if tracer else contextlib.nullcontext
    checks = Checks()
    work = WORKLOADS[args.workload](args, checks, untraced, host.clock)

    with phase("bench.load"):
        work.load()
    with phase("bench.warmup"):
        work.warmup()
    ready = monotonic()
    setup = {"ready": ready, "setup_probe_s": host.spent,
             "setup_factor": host.factor(0, len(host.samples))}
    if args.role == "setup":
        host.stop()
        return setup
    setup_probes = len(host.samples)

    op_s: list[float] = []
    items = rounds = 0
    with phase("bench.ops"):
        while True:
            latencies, n = work.round(rounds)
            op_s += latencies
            items += n
            rounds += 1
            if work.one_round_per_process or args.trace:
                break
            # stop before a round that would likely end past --seconds
            if (monotonic() - ready) * (rounds + 1) / rounds > args.seconds:
                break
    host.stop()

    self_checks = Checks()
    if args.reference:
        with untraced():
            work.reference()
            work.self_check(self_checks)

    result = {
        **setup,
        "op_s": op_s,
        "ops_factor": host.factor(setup_probes),
        "items": items,
        "phase_s": work.phase_s,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.messages,
        "self_check_counted": (self_checks.attempted == 1 and self_checks.failed == 1
                               if args.reference else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
    }
    if tracer:
        result["per_layer"], result["absent"] = layers.per_layer_metrics(
            tracer, work.file_bytes, sum(op_s))
        result["missing_functions"] = tracer.missing()
        tracer.save(Path(args.out) / f"spans-{args.workload}-s{args.seed}.npz")
    return result


def main(host) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, default=0,
                   help="which of the run's processes this is; selects its input stream")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--role", choices=("setup", "main"), required=True)
    p.add_argument("--tables", required=True, help="directory holding the three table files")
    p.add_argument("--out", required=True, help="directory for temporary and trace files")
    p.add_argument("--reference", action="store_true",
                   help="after the timed rounds, run the reference check and the self-check")
    p.add_argument("--trace", action="store_true",
                   help="record spans over one round of operations instead of --seconds")
    args = p.parse_args()
    result = run(args, host)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0

