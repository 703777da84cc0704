"""Optimal planners: IDA* with a perimeter-search heuristic, plus the
distance-table greedy oracle used to cross-check it.

IDA*'s heuristic has two parts (perimeter search, Dillenburg & Nelson
1994; BIDA*, Manzini 1995): the exact distance within PERIMETER moves of
solved, from a breadth-first search of that ball, and beyond it the least
value above PERIMETER with the parity of the state's distance.  Every
generalized move flips the parity of the perm code's depth in the perm
quotient, so a rank's distance has the parity of its perm pattern-database
entry; every state nearer than PERIMETER + 1 lies in the ball, so the
bound is admissible.  It is also consistent, changing by exactly 1 along
every move, so IDA*'s bounds step by 2.

The ball also stores its paths to solved.  Each rank's heuristic byte
holds h in its low nibble and, for every ball rank but solved, in bits
4-6 the first move in child order whose successor is one move closer.
Once the search reaches a ball rank within its bound, it appends the
stored moves instead of searching on.  That walk cannot fail, and it is
the path the search would have taken: a bound below the root's distance
d admits no ball rank, as g + exact distance >= d there; at bound d the
search takes the first descending child at every step; and neither the
undo filter nor the triple-repeat filter can drop a descending move, as
both lead back to the rank one move farther out.  The last TAIL moves of
every walk are memoized: the 2,944 ranks within TAIL moves of solved map
to the tuples of their stored moves, so a walk takes stored steps only
down to that radius and then appends the tuple.  The moves appended are
the same stored moves, so solutions and node counts are unchanged.

Both planners operate on canonical ranks through the scalar coordinate
move tables, `tables.rank_moves()` (a child's rank is the sum of a perm
part and a twist part), and return move lists over the generalized set.
Child order is fixed (U, U', R, R', F, F'), so identical inputs always
produce identical solutions and node counts; at its final bound IDA*
returns the first optimal path in that order, whatever admissible
heuristic guides it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cube import (GENERALIZED_MOVES, N_PERM, N_STATES, CanonicalState, CubeletState, Move,
                   canonicalize)
from .tables import (N_ORI, DistanceTable, InconsistentTable, PatternDB, rank_moves,
                     rank_successors)

MAX_DEPTH = 14  # quarter-turn diameter of the canonical space
# radius of the exact ball around solved: 519,628 states, filled in tens of ms
PERIMETER = 9
# radius of the memoized paths inside it: 2,944 ranks, built in a few ms
TAIL = 5

# index of the inverse of each generalized move, in child order
_INV = (1, 0, 3, 2, 5, 4)

# _ALLOWED[m1][m2]: the moves tried after last move m1 and the one before
# it, m2 (-1 = none, which indexes the last entry), in child order: no
# immediate undo, no third repeat of one move
_ALLOWED = tuple(
    tuple(tuple(mi for mi in range(6)
                if not (m1 >= 0 and (mi == _INV[m1] or mi == m1 == m2)))
          for m2 in (*range(6), -1))
    for m1 in (*range(6), -1)
)

_FOUND = -1


class SolveResult(NamedTuple):
    solution: list[Move]
    nodes_expanded: int
    iterations: int
    bounds: tuple[int, ...] = ()  # one deepening bound per iteration


def search_heuristic(pdb: PatternDB) -> bytearray:
    """IDA*'s heuristic, one byte per rank, built on first use and cached
    on `pdb`: h in the low nibble, and for every rank of the ball but
    solved, its first move in child order one move closer in bits 4-6.

    The same call caches `pdb.ida_tails`, the stored moves to solved of
    each of the 2,944 ranks within TAIL moves of it.  Each is built in its
    own function, so the ball's numpy temporaries are freed before the
    memo is made.
    """
    if pdb.ida_heuristic is None:
        h = _ball(pdb.perm_db)
        pdb.ida_heuristic, pdb.ida_tails = h, _ball_tails(h)
    return pdb.ida_heuristic


def _ball(perm_db: np.ndarray) -> bytearray:
    """`search_heuristic`'s bytes, filled in one buffer in place.

    Each perm code's row of 729 ranks gets the least value above PERIMETER
    with the parity of `perm_db`'s entry, the parity of every distance in
    the row, and no move.  Then a push BFS over depths 1..PERIMETER reads
    any low nibble above PERIMETER as not reached.  Each level pushes its
    moves in `_INV` order, so the first push to reach a rank is the
    inverse of its first descending move in child order, and writes
    ``depth | _INV[m] << 4``.  No level runs over the whole grid, so the
    half-grid split is never built.
    """
    h = bytearray(N_STATES)
    dist = np.frombuffer(h, dtype=np.uint8)
    grid = dist.reshape(N_PERM, N_ORI)
    grid[:] = (PERIMETER + 1 + ((perm_db + PERIMETER + 1) & 1))[:, None]
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int32)
    for depth in range(1, PERIMETER + 1):
        found = []
        for m, succ in zip(_INV, rank_successors(frontier, _INV)):
            succ = succ[(dist.take(succ) & 15) > PERIMETER]
            dist[succ] = depth | _INV[m] << 4
            found.append(succ)
        frontier = np.concatenate(found)
    return h


def _ball_tails(h: bytearray) -> dict[int, tuple[Move, ...]]:
    """Each rank within TAIL moves of solved, mapped to the moves that the
    ball `h` stores on its way to solved.

    A small BFS from solved over the stored moves, with no whole-table
    temporary: a rank one level out is the child, under the inverse of
    some move m, of a rank it stores m for, so it is reached once, from
    the rank that move leads to.
    """
    perm_parts, ori_parts = rank_moves()
    tails: dict[int, tuple[Move, ...]] = {0: ()}
    level = [0]
    for depth in range(1, TAIL + 1):
        outer = []
        for r in level:
            prow, orow = perm_parts[r // N_ORI], ori_parts[r % N_ORI]
            for m, inv in enumerate(_INV):
                child = prow[inv] + orow[inv]
                if h[child] == depth | m << 4:
                    tails[child] = (GENERALIZED_MOVES[m], *tails[r])
                    outer.append(child)
        level = outer
    return tails


def _root(state: CubeletState | CanonicalState) -> int:
    """The canonical rank of `state`; a CanonicalState is ranked as it is."""
    return (state if isinstance(state, CanonicalState) else canonicalize(state)).rank


def ida_star(state: CubeletState | CanonicalState, pdb: PatternDB) -> SolveResult:
    """One optimal solution for `state`, deterministic in path and node count.

    Iterative deepening with bound = g + `search_heuristic(pdb)`; branches
    whose bound exceeds the current iteration limit are pruned, as are
    immediate undo moves and triple repeats of one move.  The first child
    inside the perimeter within the bound ends the search: its stored
    moves are appended, and each rank on them counts as an expanded node,
    as the search would have expanded it.  That walk takes stored steps
    down to TAIL moves from solved and then appends the memoized rest,
    `pdb.ida_tails`, which is the same stored moves: path and node count
    are unchanged.  A root inside the perimeter is walked the same way.
    `pdb` supplies the heuristic's parity beyond the perimeter (its perm
    distances) and holds the heuristic's cache.
    """
    root = _root(state)
    if root == 0:
        return SolveResult([], 0, 0)

    h = search_heuristic(pdb)
    tails = pdb.ida_tails
    perm_parts, ori_parts = rank_moves()
    moves = GENERALIZED_MOVES
    bound = h[root] & 15
    path: list[Move] = []
    if bound <= PERIMETER:
        r = root
        for _ in range(bound - TAIL):
            mi = h[r] >> 4
            path.append(moves[mi])
            r = perm_parts[r // N_ORI][mi] + ori_parts[r % N_ORI][mi]
        path += tails[r]
        return SolveResult(path, bound, 1, (bound,))

    allowed = _ALLOWED
    nodes = 0

    def dfs(r: int, g: int, bound: int, m1: int, m2: int) -> int:
        nonlocal nodes
        nodes += 1
        nxt = MAX_DEPTH + 1
        prow = perm_parts[r // N_ORI]
        orow = ori_parts[r % N_ORI]
        g += 1
        for mi in allowed[m1][m2]:
            child = prow[mi] + orow[mi]
            hc = h[child] & 15
            f = g + hc
            if f > bound:
                if f < nxt:
                    nxt = f
                continue
            path.append(moves[mi])
            if hc <= PERIMETER:
                # the stored moves from `child`, one node per rank they leave
                nodes += hc
                for _ in range(hc - TAIL):
                    mi = h[child] >> 4
                    path.append(moves[mi])
                    child = perm_parts[child // N_ORI][mi] + ori_parts[child % N_ORI][mi]
                path.extend(tails[child])
                return _FOUND
            t = dfs(child, g, bound, mi, m1)
            if t == _FOUND:
                return _FOUND
            path.pop()
            if t < nxt:
                nxt = t
        return nxt

    bounds: list[int] = []
    while True:
        bounds.append(bound)
        t = dfs(root, 0, bound, -1, -1)
        if t == _FOUND:
            return SolveResult(path, nodes, len(bounds), tuple(bounds))
        if t > MAX_DEPTH:
            raise RuntimeError(f"no solution within depth {MAX_DEPTH}")
        bound = t


def oracle_solve(state: CubeletState | CanonicalState, table: DistanceTable) -> list[Move]:
    """Greedy descent on the exact table: always optimal, trivially correct.

    Independent of ida_star's search; serves as its oracle.  The
    executor's planner calls the rank-level `oracle_descent` directly.
    """
    return oracle_descent(_root(state), table)


def oracle_descent(r: int, table: DistanceTable) -> list[Move]:
    """`oracle_solve` from canonical rank `r`.  Raises InconsistentTable
    when some state on the way has no neighbour one move closer."""
    perm_parts, ori_parts = rank_moves()
    dist = memoryview(table.dist)
    moves: list[Move] = []
    while r != 0:
        d = dist[r] - 1
        p, o = divmod(r, N_ORI)
        prow, orow = perm_parts[p], ori_parts[o]
        for mi in range(6):
            child = prow[mi] + orow[mi]
            if dist[child] == d:
                moves.append(GENERALIZED_MOVES[mi])
                r = child
                break
        else:
            raise InconsistentTable(f"distance table is inconsistent at rank {r}")
    return moves
