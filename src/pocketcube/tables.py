"""Exhaustive distance table, pattern databases and their binary persistence.

The full table holds the exact quarter-turn distance to solved for every
canonical state, filled by breadth-first search from the solved rank under
the six generalized moves.  The two pattern databases are exact distances
in the orientation-only (3^6 states) and permutation-only (7! states)
quotients.  IDA* reads neither; both files are kept for the table-file
format and certified on load.

A rank is perm code * 729 + twist code, the coordinates `cube` defines,
and a generalized move acts on each coordinate on its own.  So two small
coordinate move tables, 5040 x 6 and 729 x 6, `cube.move_tables()`, give
the successor of any rank, and the abstractions are homomorphic:
ori index = rank % 729, perm index = rank // 729.  Each pattern database
is thus the table's projection, a code's least distance over its ranks,
and a loaded one is certified on its quotient's move table.  Everything
heavy is vectorized with numpy over those tables; per-rank loops read them
as `rank_moves()`.  The one BFS runs each depth as the cheapest of a
push from the frontier, a pull over the ranks left or a pull over the
whole grid (`_bfs_fill`).  Every pass over the whole table runs one block
of 168 perm rows at a time, so none allocates anything of the table's size:
the blocked pull, `_pull`, gives a block's children's bytes as (729, rows)
arrays, reused from the heap, read by the grid levels (each block written
back as 1 + its least successor), the exact-distance check and IDA*'s two
rings.  Every move is a quarter turn, an odd corner permutation, so a
rank's depth parity is its perm code's permutation parity (`cube`'s,
checked on the move table): a level reads only the 2520 perm rows of its
depth's parity, whose children all lie in the other 2520.

Binary format (one file per table):
  magic "CUBE2DT\\0" | version u32 LE = 1 | metric byte (0 = QTM)
  | kind byte (0 full, 1 ori PDB, 2 perm PDB) | entry count u32 LE
  | payload bytes | CRC32 of payload, u32 LE
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .cube import (
    DIAMETER,
    N_ORI,
    N_PERM,
    N_STATES,
    CanonicalState,
    CubeletState,
    Move,
    canonicalize,
    move_tables,
    perm_parity,
    rank,
    unrank,
)

MAGIC = b"CUBE2DT\0"
VERSION = 1
METRIC_QTM = 0

KIND_FULL = 0
KIND_ORI_PDB = 1
KIND_PERM_PDB = 2

_ENTRIES = {KIND_FULL: N_STATES, KIND_ORI_PDB: N_ORI, KIND_PERM_PDB: N_PERM}

# CRC-32 of the exact distance table's payload; the load's entry count fixes
# its length.  The table is a constant, so a file with a valid CRC and any
# other payload holds a wrong distance, which `check_exact_distances` finds
EXACT_DIST_CRC = 0x30A4A9B2


class TableFormatError(Exception):
    """Base for persistence-format violations."""


class BadMagic(TableFormatError):
    pass


class BadVersion(TableFormatError):
    pass


class ChecksumMismatch(TableFormatError):
    pass


class TruncatedFile(TableFormatError):
    pass


class BadEntryCount(TableFormatError):
    """The header's entry count does not fit the table kind."""


class InconsistentTable(TableFormatError):
    """A well-formed table whose distances contradict the move graph."""


# ---------------------------------------------------------------------------
# move tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def rank_moves() -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """`move_tables()` as tuples of ints, the perm part already times 729:
    a child's rank is ``perm[r // 729][m] + ori[r % 729][m]``.  The
    per-rank loops index these ~3x faster than numpy scalars.

    Each distinct part is one int object, shared by every row that holds
    it: 5,040 perm parts and 729 twist parts, not one object per entry.
    The walks that follow these tables then read about 1 MB less scattered
    heap, a working set that stays in cache between their calls."""
    perm, ori = move_tables()
    perm_parts = np.array(range(0, N_STATES, N_ORI), dtype=object)[perm]
    ori_parts = np.array(range(N_ORI), dtype=object)[ori]
    return tuple(map(tuple, perm_parts.tolist())), tuple(map(tuple, ori_parts.tolist()))


_RANK_MOVES: tuple = ()  # rank_moves(), bound by successor's first call


def successor(r: int, mi: int) -> int:
    """Rank after generalized move GENERALIZED_MOVES[mi] from rank `r`."""
    global _RANK_MOVES
    perm, ori = _RANK_MOVES or (_RANK_MOVES := rank_moves())
    return perm[r // N_ORI][mi] + ori[r % N_ORI][mi]


def rank_successors(ranks: np.ndarray, moves=range(6)):
    """Ranks after each generalized move of `moves` from `ranks`, one array
    per move, each made as it is read.  The split is intp, so no take casts
    its index.  Each array gets its twist part added in place and is then
    held by the caller alone (a generator function would keep the last one
    alive), so a BFS level keeps the fewest temporaries."""
    perm, ori = move_tables()
    p, o = np.divmod(ranks, N_ORI, dtype=np.intp)

    def successors(mi: int) -> np.ndarray:
        succ = (perm[:, mi] * N_ORI).take(p)
        succ += ori[:, mi].take(o)
        return succ

    return map(successors, moves)


# The cost of a push or pull per node it expands, over that of a whole-grid
# level per rank of the whole grid.  Measured in the first BFS of a fresh
# interpreter (2-core Xeon VM, medians of 5): a grid level, the blocked pull
# over one parity's half of the grid, costs ~2.2 ns per rank of the whole
# grid (8.1-8.4 ms), a push ~68-72 ns per frontier node (depths 8-9), a
# pull ~88 ns per node left (depth 13), its scan included: ratios of ~31
# and ~39.  Any ratio from 11 to 32, a range the depth histogram alone
# fixes, picks the same levels for the rank graph: push at depths 1-9,
# whole grid at 10-12, pull at 13-14 (no depth 15 runs once every rank is
# reached).  33 also runs depth 9 whole grid and 41 depth 13 as well; at
# the costs above both are near ties, 8.2 ms either way at depth 9, and
# 7.9 ms pulled against 8.2 ms whole grid at depth 13.
_GRID_COST_RATIO = 24

# perm rows per block of the blocked pull, a divisor of a parity's 2,520: a
# block's (729, rows) arrays are 122,472 bytes, under glibc's 128 KiB mmap
# threshold, so they are reused from the heap (315 rows, 230 kB each, took
# 640 minor faults a whole-table pass, 168 none) and stay in cache
_BLOCK_ROWS = 168

# a BFS's mark for a rank not reached yet, above every depth of the rank graph
_UNREACHED = 0xFF

# index of the inverse of each generalized move, in child order
_INV = (1, 0, 3, 2, 5, 4)


def _colour_split(perm: np.ndarray, colour: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The perm codes split by `colour`, 0 or 1 per code: the sorted codes
    of colour 0, then those of colour 1.  Raises RuntimeError unless code 0
    has colour 0 and every move of `perm` flips the colour of every code:
    only then is a rank's depth parity its perm code's colour, and a BFS
    level reads one colour and writes the other.
    """
    if colour[0] or (colour[perm] == colour[:, None]).any():
        raise RuntimeError("a perm move keeps the parity of a code's depth")
    return np.flatnonzero(colour == 0), np.flatnonzero(colour == 1)


@lru_cache(maxsize=1)
def _rank_colours():
    """`_colour_split` of the perm move table by `cube.perm_parity`, built
    once per process."""
    return _colour_split(move_tables()[0], perm_parity())


def _push(dist: np.ndarray, frontier: np.ndarray, depth: int, record: bool = False):
    """One push level: each successor of the ranks `frontier` not reached
    in `dist` takes `depth`, move by move, so none is reached twice.

    A byte is not reached while its low nibble is above `depth`: true of
    _UNREACHED and of any mark above every depth pushed, false of a rank
    this level has reached.  The moves are pushed in `_INV` order, so with
    `record` the first push to reach a rank is the inverse of its first
    move in child order one move closer, and the rank takes
    ``depth | _INV[m] << 4``.  Returns the ranks reached, one array per
    move, each made as it is read (a lazy map, as `rank_successors`): a
    caller that drops each keeps no frontier.
    """
    def store(m: int, succ: np.ndarray) -> np.ndarray:
        succ = succ[(dist.take(succ) & 15) > depth]
        dist[succ] = depth | _INV[m] << 4 if record else depth
        return succ

    return map(store, _INV, rank_successors(frontier, _INV))


def _pull(grid: np.ndarray, codes: np.ndarray, moves=range(6)):
    """The blocked pull, the one kernel of every pass that reads each
    rank's children from the (N_PERM, 729) byte grid `grid`.

    Yields, for each block of _BLOCK_ROWS codes of `codes` in turn (the
    last block holds the rest), the block and its children's bytes under
    each move of the sequence `moves`, made as they are read: each a
    (729, rows) array, one row gather and then one fancy column gather.
    That gather writes its result F-ordered, so read transposed it is
    C-ordered with no copy, and takes half the time of np.take along axis
    1.  Callers combine the children in that layout, and each child array
    is theirs to write into.
    """
    perm, ori = move_tables()
    cols = ori.T.astype(np.intp)
    for lo in range(0, codes.size, _BLOCK_ROWS):
        block = codes[lo:lo + _BLOCK_ROWS]
        rows = perm[block].T
        yield block, (grid[rows[m]][:, cols[m]].T for m in moves)


def nearest_successor(dist: np.ndarray, codes: np.ndarray):
    """The least byte of `dist` (any N_STATES bytes, one per rank) among the
    six successors of each rank of the perm rows `codes`, by `_pull`: yields
    each block and its (729, rows) least bytes, the caller's to write into."""
    for block, children in _pull(dist.reshape(N_PERM, N_ORI), codes):
        least = next(children)
        for child in children:
            np.minimum(least, child, out=least)
        yield block, least


def _grid_level(dist: np.ndarray, depth: int, colours) -> int:
    """One BFS level over the rows of colour depth % 2 (`colours`, the
    `_rank_colours` split), the half of the rank grid that can take
    `depth`, each block written back whole as `_bellman` of its least
    successor bytes, solved restored to 0; returns how many took `depth`.
    A reached rank keeps its byte, its least successor being one less; a
    rank not reached is at least `depth` away, so it takes `depth` if a
    successor is at depth - 1, else stays _UNREACHED, 1 + the cap.
    """
    grid, count = dist.reshape(N_PERM, N_ORI), 0
    for block, least in nearest_successor(dist, colours[depth % 2]):
        grid[block] = _bellman(least, block[0] == 0).T
        count += int(np.count_nonzero(np.equal(least, depth, out=least.view(bool))))
    return count


def _pull_level(dist: np.ndarray, depth: int, colours) -> int:
    """One sparse BFS level: each rank of colour depth % 2 not reached in
    `dist` takes `depth` if a successor is at depth - 1; returns how many
    did.  Found and pulled a block of perm rows at a time: the successors
    lie in rows of the other colour, so no block reads another's writes."""
    grid, codes, count = dist.reshape(N_PERM, N_ORI), colours[depth % 2], 0
    for lo in range(0, codes.size, _BLOCK_ROWS):
        block = codes[lo:lo + _BLOCK_ROWS]
        left = np.flatnonzero(grid[block] == _UNREACHED)
        left = block[left // N_ORI] * N_ORI + left % N_ORI
        hit = np.zeros(left.size, dtype=bool)
        for succ in rank_successors(left):
            hit |= dist.take(succ) == depth - 1
        dist[left[hit]] = depth
        count += int(np.count_nonzero(hit))
    return count


def _bfs_fill(dist: np.ndarray) -> list[int]:
    """Exact distances from the solved rank, written into `dist` (N_STATES
    entries, all _UNREACHED) in place.  Returns the count of ranks at each
    depth reached, from 0.  A depth runs one of three levels: a push
    (`_push`) from the frontier; a pull (`_pull_level`) over the ranks
    left, sound because the moves are closed under inverse, so a rank's
    predecessors are its successors (Beamer et al., SC 2012); or a grid
    level (`_grid_level`) over every rank of the depth's parity.

    A depth runs whole grid once the smaller of the frontier and the ranks
    left, times _GRID_COST_RATIO, exceeds N_STATES; otherwise it pulls when
    the frontier outnumbers the ranks left and pushes if not.  Only a push
    keeps a frontier, its per-move arrays, which the next push joins: no
    push follows another level, whatever _GRID_COST_RATIO, as the frontier
    grows through depth 11 and from there on outnumbers the ranks left.
    """
    colours = _rank_colours()
    dist[0] = 0
    frontier, counts = [np.zeros(1, dtype=np.int32)], [1]
    reached, depth = 1, 0
    while counts[-1] and reached < dist.size:
        depth += 1
        size, left = counts[-1], dist.size - reached
        if min(size, left) * _GRID_COST_RATIO > dist.size:
            frontier = None  # freed before the level runs
            size = _grid_level(dist, depth, colours)
        elif size > left:
            frontier = None
            size = _pull_level(dist, depth, colours)
        else:
            frontier = [*_push(dist, np.concatenate(frontier), depth)]
            size = sum(map(len, frontier))
        reached += size
        counts.append(size)
    return counts if counts[-1] else counts[:-1]


# ---------------------------------------------------------------------------
# distance table
# ---------------------------------------------------------------------------

@dataclass
class DistanceTable:
    """Exact QTM distance per canonical rank, plus its depth histogram and a
    rank/select directory per depth (Jacobson, FOCS 1989): the count of the
    depth's ranks in the perm rows before each row, 5041 int64 per depth."""

    dist: np.ndarray
    _row_starts: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    _histogram: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    # the CRC-32 stored in the file `load` read, already matched against the payload
    crc: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.dist = np.ascontiguousarray(self.dist, dtype=np.uint8)
        if self.dist.shape != (N_STATES,):
            raise ValueError(f"distance table must have {N_STATES} entries")

    @property
    def histogram(self) -> tuple[int, ...]:
        """Count of each depth 0..max(DIAMETER, max depth), counted on first
        use without np.bincount's intp copy."""
        if self._histogram is None:
            self._histogram = tuple(int(np.count_nonzero(self.dist == d))
                                    for d in range(max(DIAMETER, self.max_depth) + 1))
        return self._histogram

    @property
    def max_depth(self) -> int:
        return int(self.dist.max())

    def distance(self, state: CubeletState | CanonicalState) -> int:
        """Exact optimal move count for `state`: a CanonicalState costs a
        read of its cached rank and one table lookup, a raw state one
        rotation to canonical form first."""
        return int(self.dist[canonicalize(state).rank])

    def _starts(self, depth: int) -> np.ndarray:
        """starts[p], the count of ranks at `depth` in perm rows 0..p-1, for p
        in 0..5040; built on first use, about 1 ms, and cached."""
        if depth not in self._row_starts:
            # blocks of 560 rows: a whole-grid comparison is a 3.7 MB temporary
            # that raised eval's peak RSS by 3.2 MB; a row holds at most 729,
            # and a uint16 sum runs ~2.5x faster than an int64 one
            grid, per_row = self.dist.reshape(N_PERM, N_ORI), np.empty(N_PERM, dtype=np.uint16)
            for lo in range(0, N_PERM, 560):
                (grid[lo:lo + 560] == depth).sum(axis=1, dtype=np.uint16, out=per_row[lo:lo + 560])
            starts = np.zeros(N_PERM + 1, dtype=np.int64)
            np.cumsum(per_row, out=starts[1:])
            self._row_starts[depth] = starts
        return self._row_starts[depth]

    def count_at(self, depth: int) -> int:
        """The number of states at exactly `depth` moves."""
        return int(self._starts(depth)[-1])

    def select_at(self, depth: int, k: np.ndarray) -> np.ndarray:
        """The k-th smallest rank at exactly `depth` moves, from 0, for each
        k of `k` (all in 0..count_at(depth) - 1), as intp.

        Each distinct perm row that a k falls in is read once, so the memory
        is O(len(k) + one table) for any len(k).
        """
        starts = self._starts(depth)
        rows = np.searchsorted(starts, k, side="right") - 1
        distinct, inverse = np.unique(rows, return_inverse=True)
        # the depth's positions in the gathered rows, row after row in order
        hits = np.flatnonzero(self.dist.reshape(N_PERM, N_ORI)[distinct] == depth)
        sizes = starts[distinct + 1] - starts[distinct]
        first = np.cumsum(sizes) - sizes
        return rows * N_ORI + hits[first[inverse] + k - starts[rows]] % N_ORI

    def save(self, path) -> None:
        _write_table(path, KIND_FULL, self.dist)

    @classmethod
    def load(cls, path) -> "DistanceTable":
        # read-only, over the file's bytes: no copy of the payload
        payload, crc = _read_table(path, expect_kind=KIND_FULL)
        return cls(np.frombuffer(payload, dtype=np.uint8), crc=crc)


def build_distance_table() -> DistanceTable:
    """BFS over the whole canonical space; 45-55 ms on one core.  The
    table's histogram is the BFS's level counts once every rank is reached."""
    dist = np.full(N_STATES, _UNREACHED, dtype=np.uint8)
    counts = _bfs_fill(dist)
    if sum(counts) != N_STATES:
        return DistanceTable(dist)
    return DistanceTable(dist, _histogram=tuple(counts) + (0,) * (DIAMETER + 1 - len(counts)))


# ---------------------------------------------------------------------------
# pattern databases
# ---------------------------------------------------------------------------

@dataclass
class PatternDB:
    """Orientation-only and permutation-only abstraction distances."""

    ori_db: np.ndarray
    perm_db: np.ndarray
    # IDA*'s heuristic, one byte per rank, cached by solver.search_heuristic,
    # and the memo of paths to solved that its walks fill
    ida_heuristic: bytearray | None = field(default=None, init=False, repr=False, compare=False)
    ida_tails: dict[int, tuple[Move, ...]] | None = field(default=None, init=False, repr=False,
                                                         compare=False)

    def __post_init__(self):
        self.ori_db = np.ascontiguousarray(self.ori_db, dtype=np.uint8)
        self.perm_db = np.ascontiguousarray(self.perm_db, dtype=np.uint8)
        if self.ori_db.shape != (N_ORI,) or self.perm_db.shape != (N_PERM,):
            raise ValueError("pattern database has wrong shape")

    def save(self, ori_path, perm_path) -> None:
        _write_table(ori_path, KIND_ORI_PDB, self.ori_db)
        _write_table(perm_path, KIND_PERM_PDB, self.perm_db)

    @classmethod
    def load(cls, ori_path, perm_path) -> "PatternDB":
        """Read both files and certify each on its quotient's move table
        (`_bellman_violations`, microseconds): a well-formed file with a
        wrong entry raises InconsistentTable naming the file.  Both
        abstractions are homomorphic, so a certified pair is admissible with
        no pass over the ranks: max(ori, perm) <= the exact distance.
        Returns read-only arrays over the files' bytes."""
        perm_moves, ori_moves = move_tables()
        ori = np.frombuffer(_read_table(ori_path, expect_kind=KIND_ORI_PDB)[0], dtype=np.uint8)
        perm = np.frombuffer(_read_table(perm_path, expect_kind=KIND_PERM_PDB)[0], dtype=np.uint8)
        for path, db, moves in ((ori_path, ori, ori_moves), (perm_path, perm, perm_moves)):
            bad = _bellman_violations(db, db.take(moves).min(axis=1))
            if bad.size:
                raise InconsistentTable(f"{path}: {bad.size} entries are not the abstract "
                                        f"distances, first index {int(bad[0])}")
        return cls(ori, perm)


def build_pattern_dbs(table: DistanceTable) -> PatternDB:
    """The table's projections, each code's least distance over its ranks:
    the exact quotient distances, as both abstractions are homomorphic."""
    grid = table.dist.reshape(N_PERM, N_ORI)
    return PatternDB(grid.min(axis=0), grid.min(axis=1))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _write_table(path, kind: int, payload) -> None:
    """Header, `payload` (any bytes-like of one byte per entry) and its CRC,
    each written to the file as it stands: no joined copy of the payload."""
    header = MAGIC + struct.pack("<I", VERSION) + bytes([METRIC_QTM, kind])
    header += struct.pack("<I", len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def _read_table(path, expect_kind: int) -> tuple[memoryview, int]:
    """The checked payload of a table file, a read-only view into the bytes
    read, and the CRC-32 stored with it, which it matches."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC):
        raise TruncatedFile(f"{path}: shorter than the magic string")
    if blob[:len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path}: not a cube table file")
    if len(blob) < len(MAGIC) + 10:
        raise TruncatedFile(f"{path}: header cut short")
    version, = struct.unpack_from("<I", blob, len(MAGIC))
    if version != VERSION:
        raise BadVersion(f"{path}: version {version}, expected {VERSION}")
    metric = blob[len(MAGIC) + 4]
    kind = blob[len(MAGIC) + 5]
    if metric != METRIC_QTM:
        raise TableFormatError(f"{path}: unknown metric byte {metric}")
    if kind not in _ENTRIES:
        raise TableFormatError(f"{path}: unknown table kind {kind}")
    if kind != expect_kind:
        raise TableFormatError(f"{path}: table kind {kind}, expected {expect_kind}")
    count, = struct.unpack_from("<I", blob, len(MAGIC) + 6)
    if count != _ENTRIES[kind]:
        raise BadEntryCount(f"{path}: {count} entries, expected {_ENTRIES[kind]}")
    start = len(MAGIC) + 10
    if len(blob) < start + count + 4:
        raise TruncatedFile(f"{path}: payload cut short")
    if len(blob) > start + count + 4:
        raise TableFormatError(f"{path}: trailing bytes after checksum")
    payload = memoryview(blob)[start:start + count]
    stored_crc, = struct.unpack_from("<I", blob, start + count)
    if zlib.crc32(payload) != stored_crc:
        raise ChecksumMismatch(f"{path}: payload CRC mismatch")
    return payload, stored_crc


# ---------------------------------------------------------------------------
# exhaustive verification helpers (used by tests and the CLI verify command)
# ---------------------------------------------------------------------------

def check_diameter(table: DistanceTable) -> tuple[bool, str]:
    return table.max_depth == DIAMETER, f"max depth {table.max_depth}"

def check_rank_roundtrip() -> tuple[bool, str]:
    # rank and unrank treat the perm code and the twist code independently,
    # so every perm code and every twist code round-tripping covers every rank
    bad = [r for r in (*range(0, N_STATES, N_ORI), *range(N_ORI)) if rank(unrank(r)) != r]
    return not bad, f"unrank/rank round-trip over {N_PERM} perm x {N_ORI} twist codes"

def _bellman(nearest: np.ndarray, solved: bool) -> np.ndarray:
    """`nearest` overwritten with 1 + each byte capped at 0xFE, so 1 + 0xFF
    never wraps to 0, and its first entry 0 if `solved`.  The cap is a row
    of 0xFE: a Python scalar operand gets no fast loop (~1.7 against ~0.2
    ms on the whole table, timeit, numpy 2.4.6)."""
    np.minimum(nearest, np.full(nearest.shape[-1], 0xFE, dtype=np.uint8), out=nearest)
    nearest += 1
    if solved:
        nearest.flat[0] = 0
    return nearest


def _bellman_violations(dist: np.ndarray, nearest: np.ndarray, solved: bool = True) -> np.ndarray:
    """The sorted flat indices where `dist` fails the Bellman certificate
    of distances from the solved entry: the solved entry (the first, if
    `solved`) is 0, every other is 1 + its `nearest` successor's.  With
    moves closed under inverse, a table with none is exact: a
    nearest-successor walk reaches solved in dist steps, and induction
    from solved bounds every dist by the distance.

    Computed in `nearest`'s own uint8 bytes by `_bellman`, which overwrites
    them.  Its cap is sound: by that induction, a passing table holds no
    entry above its exact distance, at most 14 < 0xFE, so no successor it
    reads is capped.
    """
    return np.flatnonzero(np.not_equal(dist, _bellman(nearest, solved), out=nearest.view(bool)))


def _count_misses(dist: np.ndarray) -> tuple[int, int]:
    """How many ranks of `dist` (N_STATES bytes, rank 0 solved) fail
    `_bellman_violations`, and the least of them (-1 if none), one block
    of perm rows at a time."""
    grid = dist.reshape(N_PERM, N_ORI)
    count, first = 0, -1
    for block, least in nearest_successor(dist, np.arange(N_PERM)):
        # the block's own bytes, compared transposed in `least`'s layout
        bad = _bellman_violations(grid[block].T, least, block[0] == 0)
        if bad.size and not count:
            twist, row = np.divmod(bad, block.size)
            first = int((block[row] * N_ORI + twist).min())
        count += bad.size
    return count, first


def check_exact_distances(table: DistanceTable) -> tuple[bool, str]:
    """`_count_misses` over every rank: any table that passes holds the
    exact distance of every state.  Two checks follow and need no code of
    their own: exact distances are all <= 14, so no entry is 0xFF and
    exactly one is 0 (the state count); and as the moves are closed under
    inverse, exact distances differ by at most 1 along every move
    (neighbour consistency)."""
    if table.dist[0] != 0:
        return False, f"solved state at distance {int(table.dist[0])}"
    count, first = _count_misses(table.dist)
    if count:
        return False, f"{count} states not 1 + their nearest successor, first rank {first}"
    return True, "dist = 1 + nearest successor's on every state but solved (0)"
