import numpy as np
import pytest
from hypothesis import settings

from pocketcube.cube import CanonicalState, apply
from pocketcube.tables import build_distance_table, build_pattern_dbs

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


def wrong_pdbs(pdb) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """(ori, perm, the wrong one's name) for pattern databases with one
    overestimating table each: the perm PDB 20 everywhere, one ori entry
    raised by 2 (its parity kept) and one perm entry raised by 1."""
    ori, perm = pdb.ori_db.copy(), pdb.perm_db.copy()
    ori[100] += 2
    perm[4000] += 1
    return [(pdb.ori_db, np.full(5040, 20, dtype=np.uint8), "perm"),
            (ori, pdb.perm_db, "ori"), (pdb.ori_db, perm, "perm")]


def bucket(table, depth: int) -> np.ndarray:
    """Sorted ranks of every state at exactly `depth` moves in `table`."""
    return np.flatnonzero(table.dist == depth)


@pytest.fixture(scope="session")
def dist_table():
    return build_distance_table()


@pytest.fixture(scope="session")
def pdb(dist_table):
    return build_pattern_dbs(dist_table)


@pytest.fixture(scope="session")
def table_dir(tmp_path_factory, dist_table, pdb):
    d = tmp_path_factory.mktemp("tables")
    dist_table.save(d / "distance_qtm.bin")
    pdb.save(d / "pdb_ori.bin", d / "pdb_perm.bin")
    return d
