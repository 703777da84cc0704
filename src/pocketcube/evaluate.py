"""Scramble sampling by exact move distance and the SR/AN experiment.

Scrambles are drawn uniformly, with replacement, from the states at one
depth of the distance table, through its per-row rank/select directory, so
every sample sits at its exact advertised distance.  The experiment runs
a block of episodes per (distance, mode), aggregates success rate and
action-number statistics, and writes one CSV row per cell.  All
randomness is derived from the master seed, episode by episode, so a
repeated run reproduces the CSV byte for byte (within one build;
cross-build PRNG stability is not promised).
"""

from __future__ import annotations

import csv
import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .cube import Move
from .executor import (
    ActuationModel,
    ExecutionMode,
    ExecutorConfig,
    Planner,
    execute_episode,
)
from .solver import oracle_descent
from .tables import DistanceTable, InconsistentTable

MIN_DISTANCE = 1
MAX_DISTANCE = 14


@dataclass
class ExperimentConfig:
    distances: tuple[int, ...] = tuple(range(MIN_DISTANCE, MAX_DISTANCE + 1))
    trials_per_distance: int = 100
    modes: tuple[ExecutionMode, ...] = (ExecutionMode.ROLLBACK, ExecutionMode.OPEN_LOOP)
    model: ActuationModel = field(default_factory=ActuationModel)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    master_seed: int = 0

    def __post_init__(self):
        if self.trials_per_distance < 1:
            raise ValueError("trials_per_distance must be >= 1")
        bad = [d for d in self.distances if not MIN_DISTANCE <= d <= MAX_DISTANCE]
        if bad:
            raise ValueError(f"distances outside 1..14: {bad}")


@dataclass(frozen=True)
class ResultRow:
    distance: int
    mode: ExecutionMode
    trials: int
    sr: float
    an_mean: float
    an_std: float


@dataclass
class ExperimentResult:
    rows: list[ResultRow]

    def row(self, distance: int, mode: ExecutionMode) -> ResultRow:
        for r in self.rows:
            if r.distance == distance and r.mode is mode:
                return r
        raise KeyError((distance, mode))

    def overall_sr(self, mode: ExecutionMode) -> float:
        srs = [r.sr for r in self.rows if r.mode is mode]
        if not srs:
            raise KeyError(mode)
        return float(np.mean(srs))


def sample_at_distance(distance: int, n: int, table: DistanceTable, rng) -> list[int]:
    """Ranks of n states drawn uniformly with replacement from those at
    exactly `distance`: n picks k in 0..count - 1, each mapped to the k-th
    smallest such rank by the table's rank/select directory.

    A distance outside 1..14 raises ValueError; a depth with no state, which
    only a table with wrong content can have, raises InconsistentTable.
    """
    if not MIN_DISTANCE <= distance <= MAX_DISTANCE:
        raise ValueError(f"distance {distance} outside 1..14")
    count = table.count_at(distance)
    if count == 0:
        raise InconsistentTable(f"distance table has no states at distance {distance}")
    picks = rng.integers(0, count, size=n)
    return table.select_at(distance, picks).tolist()


def oracle_planner(table: DistanceTable) -> Planner:
    """The executor's planner: greedy descent on the exact table, from a rank.

    Plans are memoized per rank, as tuples, for the planner's lifetime:
    both modes of `run_experiment` plan the same scrambles.
    """
    @functools.cache
    def plan(r: int) -> tuple[Move, ...]:
        return tuple(oracle_descent(r, table))
    return plan


def _seeded_rng(*ints: int) -> np.random.Generator:
    """`np.random.default_rng(ints)`, the same stream, built faster.

    SeedSequence turns a tuple of ints into the little-endian 32-bit words
    of each int, [0] for 0, one numpy array per int; given those words as
    one uint32 array it only copies them.  The hashing and the generator's
    set-up are unchanged, and so is every draw.
    """
    words = []
    for n in ints:
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        while n:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def run_experiment(config: ExperimentConfig, table: DistanceTable,
                   progress: bool = False) -> ExperimentResult:
    """Monte Carlo SR/AN per (distance, mode), deterministic in master_seed."""
    planner = oracle_planner(table)
    rows: list[ResultRow] = []
    for distance in sorted(config.distances):
        # stream tag 99 keeps scramble draws apart from episode draws
        scramble_rng = _seeded_rng(config.master_seed, distance, 99)
        scrambles = sample_at_distance(distance, config.trials_per_distance,
                                       table, scramble_rng)
        for mode_index, mode in enumerate(config.modes):
            successes = 0
            counts = np.empty(config.trials_per_distance, dtype=np.float64)
            for trial, scramble in enumerate(scrambles):
                rng = _seeded_rng(config.master_seed, distance, mode_index + 1, trial)
                report = execute_episode(scramble, mode, planner,
                                         config.model, config.executor, rng)
                successes += report.success
                counts[trial] = report.atomic_actions
            rows.append(ResultRow(
                distance=distance,
                mode=mode,
                trials=config.trials_per_distance,
                sr=successes / config.trials_per_distance,
                an_mean=float(counts.mean()),
                an_std=float(counts.std()),
            ))
            if progress:
                r = rows[-1]
                print(f"distance {distance:2d} {mode.value:<9s} "
                      f"sr={r.sr:.4f} an={r.an_mean:.2f}", file=sys.stderr)
    rows.sort(key=lambda r: (r.distance, r.mode is not ExecutionMode.ROLLBACK))
    return ExperimentResult(rows)


CSV_HEADER = ("distance", "mode", "trials", "sr", "an_mean", "an_std")


def export_csv(result: ExperimentResult, path) -> None:
    """Header plus one row per (distance, mode); floats to 4 decimals."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in result.rows:
                writer.writerow([r.distance, r.mode.value, r.trials,
                                 f"{r.sr:.4f}", f"{r.an_mean:.4f}", f"{r.an_std:.4f}"])
    except OSError as err:
        raise OSError(f"writing experiment CSV to {path!r} failed: {err}") from err
