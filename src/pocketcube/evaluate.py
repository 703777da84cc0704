"""Scramble sampling by exact move distance and the SR/AN experiment.

Scrambles are drawn uniformly, with replacement, from the states at one
depth of the distance table, through its per-row rank/select directory, so
every sample sits at its exact advertised distance.  The experiment runs
a block of episodes per (distance, mode), aggregates success rate and
action-number statistics, and writes one CSV row per cell.  All
randomness is derived from the master seed, episode by episode, so a
repeated run reproduces the CSV byte for byte (within one build;
cross-build PRNG stability is not promised).

Each distance's scrambles come from `np.random.default_rng((master_seed,
distance, 99))` and trial t of the m-th mode runs on
`np.random.default_rng((master_seed, distance, m, t))`.  The episode
generators are not built one by one: `_pcg64_states` hashes a block of keys,
every mode's trials of one distance, in one numpy pass, and one Generator
moves from stream to stream by setting its PCG64 state.  The episodes draw
from it through one `_Draws`, which calls the C functions behind the
Generator's methods on that state, so the draws are the same.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import itertools
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .actions import STEPS, Step
from .cube import DIAMETER
from .executor import (
    ActuationModel,
    ExecutionMode,
    ExecutorConfig,
    Planner,
    execute_episode,
)
from .solver import oracle_move_indices
from .tables import DistanceTable, InconsistentTable

MIN_DISTANCE = 1
MAX_DISTANCE = DIAMETER


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
            raise ValueError(f"distances outside {MIN_DISTANCE}..{MAX_DISTANCE}: {bad}")
        # a repeat would run its cell twice and overall_sr would count it twice
        for name in ("distances", "modes"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} must be non-empty without repeats, got {values}")


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
        raise ValueError(f"distance {distance} outside {MIN_DISTANCE}..{MAX_DISTANCE}")
    count = table.count_at(distance)
    if count == 0:
        raise InconsistentTable(f"distance table has no states at distance {distance}")
    picks = rng.integers(0, count, size=n)
    return table.select_at(distance, picks).tolist()


def oracle_planner(table: DistanceTable) -> Planner:
    """The executor's planner: greedy descent on the exact table, from a rank.

    Plans are the shared Steps of the descent's move indices, memoized per
    rank for the planner's lifetime: both modes of `run_experiment` plan the
    same scrambles.
    """
    @functools.cache
    def plan(r: int) -> tuple[Step, ...]:
        return tuple([STEPS[mi] for mi in oracle_move_indices(r, table)])
    return plan


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool of 4 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# the most streams whose states are built in one pass, which bounds their memory
_STREAM_CHUNK = 1024


def _seed_words(n: int) -> list[int]:
    """SeedSequence's entropy words for one int: little-endian 32-bit, [0] for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _lcg32(start: int, mult: int, n: int) -> np.ndarray:
    """start * mult**k mod 2^32 for k = 0..n, as an (n + 1, 1) uint32 column."""
    values = [start]
    for _ in range(n):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of `values` (or one word,
    broadcast): the k-th call xors consts[k] and multiplies by consts[k + 1]."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _pcg64_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of `PCG64(SeedSequence(row))` for each row of a uint32
    entropy matrix.

    SeedSequence's mix_entropy and generate_state run over every row at
    once, in numpy's uint32 arithmetic, which wraps as the C code's does.
    Their hash constants do not depend on the data, so one sequence serves
    every row, and the calls that read the same word share one array
    operation.  PCG64 then takes its seed and increment from the four
    uint64 words and sets up as O'Neill's pcg_setseq_128_srandom_r does,
    on Python ints.
    """
    rows, width = entropy.shape
    columns = np.zeros((max(width, _POOL_SIZE), rows), dtype=np.uint32)
    columns[:width] = entropy.T  # the pool's missing words hash 0
    extra = len(columns) - _POOL_SIZE
    consts = _lcg32(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    pool = _hashmix(columns[:_POOL_SIZE], consts[:_POOL_SIZE + 1])
    k = _POOL_SIZE  # index of the next hashmix call
    # every pool word into every other, then each remaining word into every pool word
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + _POOL_SIZE]))
        k += _POOL_SIZE - 1
    for column in columns[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(column, consts[k:k + _POOL_SIZE + 1]))
        k += _POOL_SIZE

    # generate_state(4, np.uint64): 8 words cycling over the pool, read as
    # little-endian pairs
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _lcg32(_INIT_B, _MULT_B, 8))
    seeds = np.ascontiguousarray(words.T, dtype="<u4").view("<u8")

    states = []
    for s_high, s_low, i_high, i_low in seeds.tolist():
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        states.append((((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


@functools.cache
def _normal_fill():
    """numpy's C `random_standard_normal_fill(bitgen_t *, npy_intp, double *)`,
    which Generator.standard_normal fills its array with.  Resolved on first
    use: importing evaluate must not load numpy.random.  A PyDLL call
    keeps the GIL, which the short fill need not drop.  Without argtypes
    (about 0.15 us a call) callers pass ctypes objects as they are: the
    bitgen_t pointer, a count from _NORMAL_COUNTS and a buffer that long."""
    from numpy.random import _generator

    fill = ctypes.PyDLL(_generator.__file__).random_standard_normal_fill
    fill.restype = None
    return fill


# the counts an episode draws, as npy_intp arguments; any other count is a KeyError
_NORMAL_COUNTS = {n: ctypes.c_ssize_t(n) for n in (3, 4)}


class _Draws:
    """A Generator's draws, for episodes on one thread, through the C
    functions its methods call, without their dispatch or lock: `random` is
    `next_double` on the bit generator's state, and `standard_normal(n)`
    returns, as a new list, the n floats `random_standard_normal_fill` puts
    in a buffer, through one call bound per count.  Both point into C state
    that the Generator owns, so the wrapper keeps the Generator alive.  An
    untraced open-loop episode stops at its first jam and makes none of the
    later draws (see executor.execute_episode), which no output reads."""

    __slots__ = ("random", "_rng", "_normals")

    def __init__(self, rng: np.random.Generator):
        interface = rng.bit_generator.ctypes
        self._rng = rng
        self.random = functools.partial(interface.next_double, interface.state)
        buf = (ctypes.c_double * max(_NORMAL_COUNTS))()
        # ctypes exports the format "<d", which tolist refuses; "d" is the same doubles
        doubles = memoryview(buf).cast("B").cast("d")
        fill, bitgen = _normal_fill(), interface.bit_generator
        self._normals = {n: (functools.partial(fill, bitgen, count, buf), doubles[:n])
                         for n, count in _NORMAL_COUNTS.items()}

    def standard_normal(self, n: int) -> list[float]:
        fill, doubles = self._normals[n]
        fill()
        return doubles.tolist()


def _streams(key: tuple[int, ...], *tails: Sequence[int]) -> Iterator[_Draws]:
    """The draws of `np.random.default_rng(key + tail)` for each tuple `tail`
    of the product of `tails` (ints below 2^32), in order, bit for bit.

    Every yield is the same `_Draws`, built once per call on one Generator,
    and holds its stream only until the next: each key sets the bit
    generator's state, which writes into the C struct the wrapper's
    pointers read.  The states are built _STREAM_CHUNK at a time by
    _pcg64_states.  A negative int in `key` raises ValueError, as numpy
    does.
    """
    head = [w for n in key for w in _seed_words(n)]
    rng = np.random.default_rng(0)  # seeded only to skip reading OS entropy
    bitgen, draws = rng.bit_generator, _Draws(rng)
    keys = itertools.product(*tails)
    while block := list(itertools.islice(keys, _STREAM_CHUNK)):
        entropy = np.empty((len(block), len(head) + len(tails)), dtype=np.uint32)
        entropy[:, :len(head)] = head
        entropy[:, len(head):] = block
        for state, inc in _pcg64_states(entropy):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield draws


def run_experiment(config: ExperimentConfig, table: DistanceTable,
                   progress: bool = False) -> ExperimentResult:
    """Monte Carlo SR/AN per (distance, mode), deterministic in master_seed."""
    planner = oracle_planner(table)
    rows: list[ResultRow] = []
    for distance in sorted(config.distances):
        # stream tag 99 keeps scramble draws apart from episode draws
        scramble_rng = np.random.default_rng((config.master_seed, distance, 99))
        scrambles = sample_at_distance(distance, config.trials_per_distance,
                                       table, scramble_rng)
        # mode 1's trials, then mode 2's: one _pcg64_states pass for up to 1,024
        streams = _streams((config.master_seed, distance), range(1, len(config.modes) + 1),
                           range(config.trials_per_distance))
        for mode in config.modes:
            successes = 0
            counts = np.empty(config.trials_per_distance, dtype=np.float64)
            # zip ends at the last scramble before it takes the next mode's stream
            for trial, (scramble, rng) in enumerate(zip(scrambles, streams)):
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
