"""Command-line front door.

    pocketcube build-tables --out DIR
    pocketcube solve --scramble "R U F'" [--planner ida|oracle]
    pocketcube scramble --distance 7 --count 5 --seed 1
    pocketcube simulate --scramble "R U" --mode rollback --seed 1 [--trace]
    pocketcube eval --trials 100 --modes both --out results.csv
    pocketcube verify [--full]

Table files are looked up in --tables DIR, else $POCKETCUBE_TABLES, else
the current directory.  Every subcommand is deterministic given its flags
and seed, and exits 0 only on full success.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import cube, solver, tables
from .cube import (
    DIAMETER,
    CubeError,
    apply_seq,
    canonicalize,
    format_moves,
    from_facelets,
    parse_moves,
    to_facelets,
)
from .tables import DistanceTable, InconsistentTable, PatternDB, TableFormatError

# `scramble`, `simulate` and `eval` import `evaluate` and `executor` when
# they run, so `solve`, `verify` and `build-tables` never load them
if TYPE_CHECKING:
    from .executor import ActuationModel, ExecutorConfig

TABLE_DIR_ENV = "POCKETCUBE_TABLES"

DIST_FILE = "distance_qtm.bin"
ORI_PDB_FILE = "pdb_ori.bin"
PERM_PDB_FILE = "pdb_perm.bin"

# the most states `scramble --count` and `eval --trials` draw per distance
MAX_DRAWS = 1_000_000


def _check_draws(flag: str, n: int) -> None:
    """Ends the command as 'error: ...' unless 1 <= n <= MAX_DRAWS: checked
    before any table is read or any draw allocated."""
    if not 1 <= n <= MAX_DRAWS:
        raise SystemExit(f"error: {flag} must be in 1..{MAX_DRAWS}")


def _table_dir(args) -> Path:
    if args.tables:
        return Path(args.tables)
    return Path(os.environ.get(TABLE_DIR_ENV, "."))


def _load_distance_table(args) -> DistanceTable:
    """The exact distance table, or InconsistentTable: a file whose payload
    is not the pinned one would print wrong distances.  `verify` loads
    without this pin, so that its certificates still run on such a file."""
    path = _table_dir(args) / DIST_FILE
    if not path.exists():
        raise SystemExit(f"error: {path} not found; run 'pocketcube build-tables' first")
    table = DistanceTable.load(path)  # its CRC, stored and matched against the payload
    if table.crc != tables.EXACT_DIST_CRC:
        raise InconsistentTable(f"{path}: inconsistent distance table: payload CRC-32 "
                                f"0x{table.crc:08X}, expected 0x{tables.EXACT_DIST_CRC:08X}")
    return table


def _load_pattern_db(args) -> PatternDB:
    d = _table_dir(args)
    for name in (ORI_PDB_FILE, PERM_PDB_FILE):
        if not (d / name).exists():
            raise SystemExit(f"error: {d / name} not found; run 'pocketcube build-tables' first")
    return PatternDB.load(d / ORI_PDB_FILE, d / PERM_PDB_FILE)


def _parse_state(args) -> cube.CanonicalState:
    if args.scramble is not None:
        seq = parse_moves(args.scramble)
        return canonicalize(apply_seq(cube.SOLVED, seq))
    return canonicalize(from_facelets(args.state))


def _from_flags(cls, args, names):
    """`cls` built from the flags among `names` that were given; its own
    validation error ends the command as 'error: ...'."""
    overrides = {name: getattr(args, name) for name in names
                 if getattr(args, name, None) is not None}
    try:
        return cls(**overrides)
    except ValueError as err:
        raise SystemExit(f"error: {err}") from None


def _actuation_model(args) -> ActuationModel:
    from .executor import ActuationModel
    return _from_flags(ActuationModel, args, ("p_rot", "p_op", "p_restore"))


def _executor_config(args) -> ExecutorConfig:
    from .executor import ExecutorConfig
    return _from_flags(ExecutorConfig, args, ("delta_x", "delta_q"))


def _add_state_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="24-letter facelet string (WYROGB)")
    group.add_argument("--scramble", help="move sequence applied to solved, e.g. \"R U F'\"")


def _add_actuator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-rot", dest="p_rot", type=float, help="re-pose success rate")
    p.add_argument("--p-op", dest="p_op", type=float, help="twist success rate")
    p.add_argument("--p-restore", dest="p_restore", type=float, help="restore success rate")
    p.add_argument("--delta-x", dest="delta_x", type=float, help="position threshold, m")
    p.add_argument("--delta-q", dest="delta_q", type=float, help="orientation threshold, rad")


def cmd_build_tables(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    table = tables.build_distance_table()
    pdb = tables.build_pattern_dbs(table)
    table.save(out / DIST_FILE)
    pdb.save(out / ORI_PDB_FILE, out / PERM_PDB_FILE)
    histogram = table.histogram  # the BFS's level counts: no pass over the table
    print(f"states: {sum(histogram)}")
    print(f"max depth: {table.max_depth}")
    print("histogram:", " ".join(f"{d}:{n}" for d, n in enumerate(histogram)))
    print(f"wrote {out / DIST_FILE}, {out / ORI_PDB_FILE}, {out / PERM_PDB_FILE} "
          f"in {(time.perf_counter() - t0) * 1e3:.0f} ms")
    return 0


def cmd_solve(args) -> int:
    state = _parse_state(args)
    if args.planner == "oracle":
        solution = solver.oracle_solve(state, _load_distance_table(args))
    else:
        solution = solver.ida_star(state, _load_pattern_db(args)).solution
    print(f"solution: {format_moves(solution)}" if solution else "solution:")
    print(f"length: {len(solution)}")
    return 0


def cmd_scramble(args) -> int:
    if not 1 <= args.distance <= DIAMETER:
        raise SystemExit(f"error: --distance must be in 1..{DIAMETER}")
    _check_draws("--count", args.count)
    from . import evaluate
    table = _load_distance_table(args)
    rng = np.random.default_rng(args.seed)
    for r in evaluate.sample_at_distance(args.distance, args.count, table, rng):
        print(to_facelets(cube.unrank(r)))
    return 0


def cmd_simulate(args) -> int:
    from . import evaluate
    from .executor import ExecutionMode, execute_episode, format_trace_entry
    state = _parse_state(args)
    table = _load_distance_table(args)
    mode = ExecutionMode.ROLLBACK if args.mode == "rollback" else ExecutionMode.OPEN_LOOP
    model = _actuation_model(args)
    config = _executor_config(args)
    rng = np.random.default_rng(args.seed)
    report = execute_episode(state.rank, mode, evaluate.oracle_planner(table),
                             model, config, rng, trace=args.trace)
    print(f"scramble distance: {table.distance(state)}")
    print(f"mode: {mode.value}")
    print(f"success: {report.success}")
    print(f"atomic actions: {report.atomic_actions}")
    print(f"moves attempted: {report.moves_attempted}")
    print(f"replans: {report.replans}")
    if args.trace:
        for entry in report.trace:
            print(format_trace_entry(entry))
    return 0


def cmd_eval(args) -> int:
    from . import evaluate
    from .executor import ExecutionMode
    _check_draws("--trials", args.trials)
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # found before any episode runs
        raise SystemExit(f"error: --out {out}: not a file in an existing directory")
    table = _load_distance_table(args)
    if args.modes == "both":
        modes = (ExecutionMode.ROLLBACK, ExecutionMode.OPEN_LOOP)
    elif args.modes == "rollback":
        modes = (ExecutionMode.ROLLBACK,)
    else:
        modes = (ExecutionMode.OPEN_LOOP,)
    config = evaluate.ExperimentConfig(
        trials_per_distance=args.trials,
        modes=modes,
        model=_actuation_model(args),
        executor=_executor_config(args),
        master_seed=args.seed,
    )
    result = evaluate.run_experiment(config, table, progress=not args.quiet)
    evaluate.export_csv(result, args.out)
    for mode in modes:
        print(f"average SR ({mode.value}): {result.overall_sr(mode):.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def run(name, fn, *fn_args):
        try:
            ok, detail = fn(*fn_args)
        except Exception as err:  # a corrupt file must report, not crash
            ok, detail = False, f"{type(err).__name__}: {err}"
        checks.append((name, ok, detail))

    d = _table_dir(args)
    try:
        table = DistanceTable.load(d / DIST_FILE)
        PatternDB.load(d / ORI_PDB_FILE, d / PERM_PDB_FILE)  # certifies both files
        checks.append(("table files", True, f"loaded from {d}"))
    except (TableFormatError, OSError) as err:
        table = None
        checks.append(("table files", False, f"{type(err).__name__}: {err}"))

    if table is not None:
        run(f"diameter {DIAMETER}", tables.check_diameter, table)
        run("exact distances", tables.check_exact_distances, table)
        run("rank round-trip", tables.check_rank_roundtrip)
        run("move reduction", cube.check_move_reduction)

    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += not ok
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors end like every other bad input: the usage,
    then 'error: ...' on stderr, and exit 1.  Subparsers are made of the
    parser's own class, so they end the same way."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pocketcube", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tables", help=f"table directory (default ${TABLE_DIR_ENV} or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-tables", help="build and save the distance table and PDBs")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_tables)

    p = sub.add_parser("solve", help="print an optimal solution")
    _add_state_args(p)
    p.add_argument("--planner", choices=("ida", "oracle"), default="ida")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("scramble", help="print states at an exact move distance")
    p.add_argument("--distance", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_scramble)

    p = sub.add_parser("simulate", help="run one execution episode")
    _add_state_args(p)
    p.add_argument("--mode", choices=("rollback", "open"), default="rollback")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="print one line per atomic action")
    _add_actuator_args(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("eval", help=f"run the SR/AN experiment over distances 1..{DIAMETER}")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--modes", choices=("both", "rollback", "open"), default="both")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    _add_actuator_args(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="prove the table files exact and check the rank "
                                      "layout and the move reduction")
    p.add_argument("--full", action="store_true",
                   help="accepted for compatibility; verify always checks every state")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # scramble, simulate and eval
        raise SystemExit("error: --seed must be >= 0")
    try:
        return args.fn(args)
    except (CubeError, TableFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
