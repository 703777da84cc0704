import numpy as np
import pytest
from hypothesis import settings

from pocketcube import solver
from pocketcube.actions import STEPS
from pocketcube.cube import GENERALIZED_MOVES, N_ORI, CanonicalState, CubeError, Move, apply
from pocketcube.tables import build_distance_table, build_pattern_dbs, rank_moves

# Every property test draws the same examples on every run, and none are
# kept between runs.
settings.register_profile("pocketcube", max_examples=300, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("pocketcube")


def apply_generalized(state, move) -> CanonicalState:
    """`move` applied to a canonical state; raises CubeError unless the
    result is canonical too, as it is for the six generalized moves."""
    moved = apply(state, move)
    return CanonicalState(moved.perm, moved.ori)


def inverse(move: Move) -> Move:
    """The move that undoes `move`: R for R', R' for R."""
    return Move(move.face if move.is_prime else move.face + "'")


_STEP_OF = dict(zip(GENERALIZED_MOVES, STEPS))


def compile_moves(seq) -> tuple:
    """Generalized move sequence -> the shared `actions.STEPS` entry of
    each move, as the planner hands them over; a move outside the set
    raises CubeError."""
    try:
        return tuple([_STEP_OF[move] for move in seq])
    except KeyError as err:
        raise CubeError(f"{err.args[0].value} is not in the generalized move set") from None


def result_row(result, distance: int, mode):
    """The ResultRow of one (distance, mode) cell of an ExperimentResult."""
    for r in result.rows:
        if r.distance == distance and r.mode is mode:
            return r
    raise KeyError((distance, mode))


def wrong_pdbs(pdb) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """(ori, perm, the wrong one's name) for pattern databases with one
    overestimating table each: the perm PDB 20 everywhere, one ori entry
    raised by 2 (its parity kept) and one perm entry raised by 1."""
    ori, perm = pdb.ori_db.copy(), pdb.perm_db.copy()
    ori[100] += 2
    perm[4000] += 1
    return [(pdb.ori_db, np.full(5040, 20, dtype=np.uint8), "perm"),
            (ori, pdb.perm_db, "ori"), (pdb.ori_db, perm, "perm")]


def plain_ida_star(root: int, h: bytes, max_depth: int = 14):
    """(solution, nodes, iterations, bounds) of IDA* from rank `root` with
    heuristic `h` (one byte per rank), in the solver's child order and move
    filters (no immediate undo, no third repeat of one move) but with none
    of its shortcuts: the perimeter is searched, not walked, every node
    entered but solved counts once, and each next bound is the least f the
    last iteration pruned."""
    if root == 0:
        return [], 0, 0, ()
    perm_parts, ori_parts = rank_moves()
    undo = (1, 0, 3, 2, 5, 4)
    path, nodes, found = [], 0, -1

    def dfs(r, g, bound, m1, m2):
        nonlocal nodes
        if r == 0:
            return found
        nodes += 1
        nxt = max_depth + 1
        for mi in range(6):
            if m1 >= 0 and (mi == undo[m1] or mi == m1 == m2):
                continue
            child = perm_parts[r // N_ORI][mi] + ori_parts[r % N_ORI][mi]
            f = g + 1 + h[child]
            if f > bound:
                nxt = min(nxt, f)
                continue
            path.append(GENERALIZED_MOVES[mi])
            t = dfs(child, g + 1, bound, mi, m1)
            if t == found:
                return found
            path.pop()
            nxt = min(nxt, t)
        return nxt

    bounds = [h[root]]
    while (t := dfs(root, 0, bounds[-1], -1, -1)) != found:
        if t > max_depth:
            raise RuntimeError(f"no solution within depth {max_depth}")
        bounds.append(t)
    return path, nodes, len(bounds), tuple(bounds)


def bucket(table, depth: int) -> np.ndarray:
    """Sorted ranks of every state at exactly `depth` moves in `table`."""
    return np.flatnonzero(table.dist == depth)


@pytest.fixture(scope="session")
def dist_table():
    return build_distance_table()


@pytest.fixture(scope="session")
def pdb(dist_table):
    return build_pattern_dbs(dist_table)


@pytest.fixture
def fresh_heuristic():
    """Clears IDA*'s per-process heuristic before and after the test, so
    the test builds its own and leaves none behind: not one of another
    perimeter or parity, nor a memo it filled."""
    solver.search_heuristic.cache_clear()
    yield
    solver.search_heuristic.cache_clear()


@pytest.fixture(scope="session")
def table_dir(tmp_path_factory, dist_table, pdb):
    d = tmp_path_factory.mktemp("tables")
    dist_table.save(d / "distance_qtm.bin")
    pdb.save(d / "pdb_ori.bin", d / "pdb_perm.bin")
    return d
