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


def bucket(table, depth: int) -> np.ndarray:
    """Sorted ranks of every state at exactly `depth` moves in `table`."""
    return np.flatnonzero(table.dist == depth)


@pytest.fixture(scope="session")
def dist_table():
    return build_distance_table()


@pytest.fixture(scope="session")
def pdb():
    return build_pattern_dbs()


@pytest.fixture(scope="session")
def table_dir(tmp_path_factory, dist_table, pdb):
    d = tmp_path_factory.mktemp("tables")
    dist_table.save(d / "distance_qtm.bin")
    pdb.save(d / "pdb_ori.bin", d / "pdb_perm.bin")
    return d
