"""Optimal planners: IDA* with a perimeter-search heuristic, plus the
distance-table greedy oracle used to cross-check it.

IDA*'s heuristic has two parts (perimeter search, Dillenburg & Nelson
1994; BIDA*, Manzini 1995): the exact distance within PERIMETER moves of
solved, from a breadth-first search of that ball, and beyond it the least
value above PERIMETER with the parity of the state's distance.  Every
generalized move is a quarter turn, an odd corner permutation, so a rank's
distance has its perm code's permutation parity (`cube.perm_parity`, split
and checked on the move table by `tables._rank_colours`); every state
nearer than PERIMETER + 1 lies in the ball, so the bound is admissible.
It is also consistent, changing by exactly 1 along every move, so IDA*'s
bounds step by 2.

The ball also stores its paths to solved, and so do two rings around it:
the ring, the ranks at distance exactly RING = PERIMETER + 1, and the
outer ring, those at OUTER = RING + 1.  Each rank's heuristic byte holds
h in its low nibble and in bits 4-6 a move: for every rank at distance
1..OUTER, the first move in child order whose successor is one move
closer; for solved 0; for every other rank 7, no stored move.  h is exact
on all of them.  Once the search reaches a ball rank within its bound, it
appends the stored moves instead of searching on.  That walk cannot fail,
and it is the path the search would have taken: a bound below the root's
distance d admits no ball rank, as g + exact distance >= d there; at
bound d the search takes the first descending child at every step; and
neither the undo filter nor the triple-repeat filter can drop a
descending move, as both lead back to the rank one move farther out.
The last TAIL moves of every walk are memoized: a walk takes stored steps
only down to that radius and then appends the tuple of the rest, which
the first walk to reach that rank stores, so the memo holds at most the
2,944 ranks within TAIL.  The moves appended are the same stored moves,
so solutions and node counts are unchanged.

Beyond the outer ring h is RING or OUTER by parity, and a move flips it:
every child of a rank there with h = RING has h = OUTER, and every child
of one with h = OUTER lies beyond it, at h = RING.  So a root's first
bound, h, fails after 1 node at RING and 7 at OUTER (the root and six
children, which prune all of theirs).  Each later bound runs one
recursion (`_search`): `left`, the largest h the bound admits for a
child, falls by 1 a level down to OUTER, where the children are counted,
not searched.  One beyond the outer ring is a dead end of 1 node plus 1
per allowed move.  One on it stores move s: it costs 1 plus 1 per
allowed move before s plus the ring's walk of RING, and is walked; a
root at OUTER, all six moves allowed, costs OUTER + s.  The move filters
never drop s.  In the iteration at bound B, every rank within OUTER
moves that the search enters has f = B (its h is exact, so a smaller f
would have ended an earlier iteration); so none is admitted above
left = OUTER, and the node above a child on the outer ring lies at
OUTER + 1, its parent at OUTER + 2.  The path descends, and both
filters lead back up: the undo to the node, a third repeat X X X = X'
next to the parent.  At PERIMETER = 9 the recursion nests one level at
12, two at 13 and three at 14.

The heuristic is consistent and parity-tight, so every f has the root's
parity and grows by 0 or 2 per move: an iteration that fails always
prunes at bound + 2, the next bound.

Both planners operate on canonical ranks through the scalar coordinate
move tables, `tables.rank_moves()` (a child's rank is the sum of a perm
part and a twist part), and return move lists over the generalized set.
Child order is fixed (U, U', R, R', F, F'), so identical inputs always
produce identical solutions and node counts; at its final bound IDA*
returns the first optimal path in that order, whatever admissible
heuristic guides it.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .cube import (GENERALIZED_MOVES, N_PERM, N_STATES, CanonicalState, CubeletState,
                   Move, canonicalize)
from .tables import (_INV, N_ORI, DistanceTable, InconsistentTable, PatternDB, _pull, _push,
                     _rank_colours, rank_moves, successor)

# radius of the exact ball around solved: 519,628 states, filled in tens of ms
PERIMETER = 9
# radius of the memoized paths inside it: at most 2,944 ranks, each stored
# when a walk first reaches it
TAIL = 5
# distance of the ring, the 930,588 ranks one move outside the ball, each
# storing its first move into it
RING = PERIMETER + 1
# distance of the outer ring, the 1,350,852 ranks one move outside the
# ring, each storing its first move into it
OUTER = RING + 1
# bits 4-6 of a rank beyond the outer ring: no stored move
_NO_MOVE = 7
# _ALLOWED[m1][m2]: the moves tried after last move m1 and the one before
# it, m2 (-1 = none, which indexes the last entry), in child order: no
# immediate undo, no third repeat of one move
_ALLOWED = tuple(
    tuple(tuple(mi for mi in range(6)
                if not (m1 >= 0 and (mi == _INV[m1] or mi == m1 == m2)))
          for m2 in (*range(6), -1))
    for m1 in (*range(6), -1)
)


class SolveResult(NamedTuple):
    solution: list[Move]
    nodes_expanded: int
    iterations: int
    bounds: tuple[int, ...] = ()  # one deepening bound per iteration


# SolveResult from a tuple of all four fields, without the generated
# __new__'s argument handling: 0.18 against 0.32 us (timeit), which a
# solve of a few us can see
_new_result = tuple.__new__


class Heuristic(NamedTuple):
    h: bytearray  # one byte per rank (search_heuristic)
    tails: dict[int, tuple[Move, ...]]  # a rank within TAIL -> its stored moves to solved


@cache
def search_heuristic() -> Heuristic:
    """IDA*'s heuristic, built from the move tables alone, once per
    process: one byte per rank, h in the low nibble, and in bits 4-6, for
    every rank of the ball and both rings but solved (distance 1..OUTER),
    its first move in child order one move closer; solved holds 0 there
    and every other rank _NO_MOVE.  Its walk memo starts with solved
    alone, and `_walk` fills the rest.  Each part of the bytes is built in
    its own function, so one's numpy temporaries are freed before the next
    is made.
    """
    h = _ball()
    _ring(h, RING)
    _ring(h, OUTER)
    return Heuristic(h, {0: ()})


def _ball() -> bytearray:
    """`search_heuristic`'s bytes, filled in one buffer in place.

    Each perm code's row of 729 ranks gets the least value above PERIMETER
    with the code's colour in `tables._rank_colours`, which that split
    certifies to be the parity of every distance in the row, and _NO_MOVE.
    Then `tables._push` over depths 1..PERIMETER records each rank's first
    move one closer, reading any low nibble above the depth as not
    reached.  The last level's ranks are no frontier, so they are dropped
    move by move.  No level runs over the whole grid.
    """
    h = bytearray(N_STATES)
    dist = np.frombuffer(h, dtype=np.uint8)
    grid = dist.reshape(N_PERM, N_ORI)
    for colour, codes in enumerate(_rank_colours()):
        grid[codes] = RING + ((colour + RING) & 1) | _NO_MOVE << 4
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int32)
    for depth in range(1, PERIMETER):
        frontier = np.concatenate([*_push(dist, frontier, depth, record=True)])
    for _ in _push(dist, frontier, PERIMETER, record=True):
        pass
    return h


def _ring(h: bytearray, k: int) -> None:
    """Store in `h` the first move of every rank at distance exactly `k`
    into a rank one closer: into the ball at RING, the ring at OUTER.

    `tables._pull` over the perm rows of k's parity (`_rank_colours`),
    moves last to first, so the first move in child order is the one that
    stays: a byte that still reads ``k | _NO_MOVE << 4`` and has a child
    that stores a move takes ``k | m << 4``.  Those children are the ranks
    at k - 1 as long as every rank beyond k - 1 reads _NO_MOVE, so the
    ring, whose ranks have children at OUTER too, is built before the
    outer ring.
    """
    grid = np.frombuffer(h, dtype=np.uint8).reshape(N_PERM, N_ORI)
    moves = range(5, -1, -1)
    for block, children in _pull(grid, _rank_colours()[k % 2], moves):
        byte = grid[block].T.copy()
        # masks as uint8 0/1, which multiply a uint8 without a cast
        ring = (byte == (k | _NO_MOVE << 4)).view(np.uint8)
        hit = np.empty_like(byte)
        for m, child in zip(moves, children):
            np.less(child, _NO_MOVE << 4, out=hit.view(bool))
            hit &= ring
            # byte -= hit * (byte - value): a boolean-mask store of this
            # dense, random mask costs ~10x more
            gap = np.subtract(byte, k | m << 4, out=child)
            gap *= hit
            byte -= gap
        grid[block] = byte.T


def _walk(h: bytearray, tails: dict[int, tuple[Move, ...]], r: int, d: int) -> list[Move]:
    """The moves that the heuristic bytes `h` store from rank `r`, d moves
    from solved: stored steps down to TAIL moves, then the memo `tails`."""
    perm_parts, ori_parts = rank_moves()
    path = []
    for _ in range(d - TAIL):
        mi = h[r] >> 4
        path.append(GENERALIZED_MOVES[mi])
        r = perm_parts[r // N_ORI][mi] + ori_parts[r % N_ORI][mi]
    try:
        path += tails[r]
    except KeyError:
        path += _tail(h, tails, r)
    return path


def _tail(h: bytearray, tails: dict[int, tuple[Move, ...]], r: int) -> tuple[Move, ...]:
    """The moves that `h` stores from rank `r`, within TAIL moves of
    solved, to solved: `tails[r]`, stored there first if missing, and
    likewise for each rank on the way."""
    if r not in tails:
        mi = h[r] >> 4
        tails[r] = (GENERALIZED_MOVES[mi], *_tail(h, tails, successor(r, mi)))
    return tails[r]


def _search(h: bytearray, tails: dict[int, tuple[Move, ...]], r: int, left: int, m1: int,
            m2: int) -> tuple[int, list[Move] | None]:
    """(nodes, moves from `r` or None) of rank `r`, reached by move m1 after
    m2, in an iteration whose bound admits children up to h = `left`.

    `r` lies beyond the outer ring, `left` is at least OUTER and has the
    parity of h(r) + 1, and the bound is at most the root's distance, so
    no child within OUTER is admitted above left = OUTER.  At OUTER the
    children are counted, not searched: a child that stores move s costs
    OUTER + s's index in allowed and is walked, any other is a dead end of
    1 + len(allowed) nodes (module docstring).  Above it every child
    recurses with left - 1."""
    perm_parts, ori_parts = rank_moves()
    prow, orow = perm_parts[r // N_ORI], ori_parts[r % N_ORI]
    nodes = 1
    for mi in _ALLOWED[m1][m2]:
        child = prow[mi] + orow[mi]
        if left == OUTER:
            allowed = _ALLOWED[mi][m1]
            s = h[child] >> 4
            if s != _NO_MOVE:
                # s is in allowed: the filters never drop it (module docstring)
                return (nodes + OUTER + allowed.index(s),
                        [GENERALIZED_MOVES[mi], *_walk(h, tails, child, OUTER)])
            nodes += 1 + len(allowed)
        else:
            n, path = _search(h, tails, child, left - 1, mi, m1)
            nodes += n
            if path is not None:
                return nodes, [GENERALIZED_MOVES[mi], *path]
    return nodes, None


def ida_star(state: CubeletState | CanonicalState, pdb: PatternDB) -> SolveResult:
    """One optimal solution for `state`, deterministic in path and node count.

    Iterative deepening with bound = g + `search_heuristic()`; branches
    whose bound exceeds the current iteration limit are pruned, as are
    immediate undo moves and triple repeats of one move.  The first child
    inside the perimeter within the bound ends the search: its stored
    moves are appended, and each rank on them counts as an expanded node,
    as the search would have expanded it.  That walk takes stored steps
    down to TAIL moves from solved and then appends the memoized rest,
    the memo `tails`, which is the same stored moves, stored there when a
    walk first reaches its rank: path and node count are unchanged.  A
    root within OUTER moves is walked the same way.  A root beyond has
    h = RING or OUTER by parity: its first bound, h, fails after 1 or 7
    nodes, and every later bound, 2 more each, runs `_search` until one
    finds a path.  At PERIMETER = 9 a root at 12 is settled with
    one scan of its children, and roots at 13 and 14 recurse two and three
    levels deep; the module docstring gives the nodes of each.  No
    search step reads `pdb`: the heuristic is built once per process from
    the move tables alone.
    """
    root = canonicalize(state).rank
    if root == 0:
        return SolveResult([], 0, 0)

    h, tails = search_heuristic()
    first = h[root] & 15
    stored = h[root] >> 4
    if stored != _NO_MOVE:  # a rank within OUTER moves
        nodes = first + stored if first == OUTER else first
        return _new_result(SolveResult, (_walk(h, tails, root, first), nodes, 1, (first,)))

    # bound h fails after 1 node at RING and 7 at OUTER (module docstring);
    # each failed bound prunes at bound + 2, the next one
    nodes, bound, path = (1 if first == RING else 7), first, None
    while path is None:
        bound += 2
        n, path = _search(h, tails, root, bound - 1, -1, -1)
        nodes += n
    bounds = tuple(range(first, bound + 1, 2))
    return _new_result(SolveResult, (path, nodes, len(bounds), bounds))


def oracle_solve(state: CubeletState | CanonicalState, table: DistanceTable) -> list[Move]:
    """Greedy descent on the exact table: always optimal, trivially correct.

    Independent of ida_star's search; serves as its oracle.  The
    executor's planner calls the rank-level `oracle_move_indices` directly.
    """
    moves = oracle_move_indices(canonicalize(state).rank, table)
    return [GENERALIZED_MOVES[mi] for mi in moves]


def oracle_move_indices(r: int, table: DistanceTable) -> list[int]:
    """`oracle_solve` from canonical rank `r`, as indices into
    GENERALIZED_MOVES.  Raises InconsistentTable when some state on the way
    has no neighbour one move closer."""
    perm_parts, ori_parts = rank_moves()
    dist = memoryview(table.dist)
    moves: list[int] = []
    while r != 0:
        d = dist[r] - 1
        p, o = divmod(r, N_ORI)
        prow, orow = perm_parts[p], ori_parts[o]
        for mi in range(6):
            child = prow[mi] + orow[mi]
            if dist[child] == d:
                moves.append(mi)
                r = child
                break
        else:
            raise InconsistentTable(f"distance table is inconsistent at rank {r}")
    return moves
