import hashlib
import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pocketcube import cube, solver, tables
from pocketcube.cube import (
    GENERALIZED_MOVES,
    N_STATES,
    SOLVED,
    Move,
    apply,
    apply_seq,
    canonicalize,
    rank,
    unrank,
)
from pocketcube.tables import (
    BadMagic,
    BadVersion,
    ChecksumMismatch,
    DistanceTable,
    InconsistentTable,
    PatternDB,
    TableFormatError,
    TruncatedFile,
    move_tables,
)

from conftest import apply_generalized, bucket, inverse, wrong_pdbs

# Depth histogram of the quarter-turn metric, pinned after the first
# verified exhaustive build as a regression artifact.
EXPECTED_HISTOGRAM = (1, 6, 27, 120, 534, 2256, 8969, 33058, 114149,
                      360508, 930588, 1350852, 782536, 90280, 276)

# sha256 of the three table files as first built: README promises that every
# rebuild reproduces them byte for byte.
REFERENCE_SHA256 = {
    "distance_qtm.bin": "d231fd82c1e3aa912efc774048a883e726c8069e4d2051f37bc0d4ad2573bb49",
    "pdb_ori.bin": "2f1610e02bbc7b7a75be0475fe51f07f5a9e3ad76d20b6bd875b1291421e8fdb",
    "pdb_perm.bin": "1db1114213a74b601fa3a43ecbc4cd5f72ad00663a4136f041b0c14b7bf4f22e",
}


def least_successor(dist: np.ndarray) -> np.ndarray:
    """The least byte of `dist` among each rank's six successors: the plain
    reference, one whole-table gather per move."""
    least = np.full(N_STATES, 0xFF, dtype=np.uint8)
    for succ in tables.rank_successors(np.arange(N_STATES)):
        np.minimum(least, dist.take(succ), out=least)
    return least


class TestBuild:
    def test_every_state_reached(self, dist_table):
        assert int(np.count_nonzero(dist_table.dist != 0xFF)) == N_STATES

    def test_histogram_sums_to_state_count(self, dist_table):
        assert sum(dist_table.histogram) == N_STATES

    def test_exactly_one_state_at_depth_zero(self, dist_table):
        assert dist_table.histogram[0] == 1
        assert dist_table.dist[0] == 0

    def test_max_depth_is_14(self, dist_table):
        assert dist_table.max_depth == 14

    def test_histogram_regression(self, dist_table):
        assert dist_table.histogram == EXPECTED_HISTOGRAM

    def test_histogram_counts_unreached_entries_like_bincount(self, dist_table):
        dist = dist_table.dist.copy()
        dist[[5, 70_000, N_STATES - 1]] = 0xFF
        dist[123] = 20
        assert DistanceTable(dist).histogram == tuple(int(n) for n in np.bincount(dist))

    def test_full_build_runs_whole_grid_levels_at_depths_10_to_12(self, monkeypatch):
        depths = []
        grid_level = tables._grid_level

        def counting(dist, depth, colours):
            depths.append(depth)
            return grid_level(dist, depth, colours)

        monkeypatch.setattr(tables, "_grid_level", counting)
        assert tables.build_distance_table().histogram == EXPECTED_HISTOGRAM
        assert depths == [10, 11, 12]

    def test_whole_grid_levels_at_every_depth_fill_the_pinned_table(self, monkeypatch,
                                                                     tmp_path):
        # a ratio above N_STATES runs depths 1-14 whole grid; the level
        # counts are read as _bfs_fill returns them, since
        # build_distance_table recounts a histogram they do not sum up to
        monkeypatch.setattr(tables, "_GRID_COST_RATIO", N_STATES + 1)
        depths = []
        grid_level = tables._grid_level
        monkeypatch.setattr(tables, "_grid_level",
                            lambda *args: depths.append(args[1]) or grid_level(*args))
        dist = np.full(N_STATES, tables._UNREACHED, dtype=np.uint8)
        assert tables._bfs_fill(dist) == list(EXPECTED_HISTOGRAM)
        assert depths == list(range(1, 15))
        DistanceTable(dist).save(tmp_path / "distance_qtm.bin")
        digest = hashlib.sha256((tmp_path / "distance_qtm.bin").read_bytes()).hexdigest()
        assert digest == REFERENCE_SHA256["distance_qtm.bin"]

    def test_search_heuristic_runs_no_whole_grid_level(self, monkeypatch, fresh_heuristic):
        # solve's set-up, IDA*'s heuristic built afresh, reads its parity
        # from the certified half-grid split and runs no whole-grid level
        calls = []
        monkeypatch.setattr(tables, "_grid_level", lambda *args, **kw: calls.append(args))
        tables._rank_colours.cache_clear()
        assert solver.search_heuristic.cache_info().currsize == 0
        solver.search_heuristic()
        assert calls == []
        assert tables._rank_colours.cache_info().currsize == 1

    @pytest.mark.parametrize("block_rows", [tables._BLOCK_ROWS, 400])
    def test_grid_level_reproduces_depths_10_to_12(self, monkeypatch, dist_table, block_rows):
        # 400 rows do not divide a parity's 2,520, so the last block is short
        monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
        exact = dist_table.dist
        for depth in (10, 11, 12):
            dist = exact.copy()
            dist[dist >= depth] = tables._UNREACHED
            count = tables._grid_level(dist, depth, tables._rank_colours())
            assert count == EXPECTED_HISTOGRAM[depth]
            assert np.array_equal(dist, np.where(exact <= depth, exact, tables._UNREACHED))

    @pytest.mark.parametrize("block_rows", [tables._BLOCK_ROWS, 400])
    def test_pull_level_reproduces_depths_13_and_14(self, monkeypatch, dist_table, block_rows):
        # the sparse pull finds the ranks left block by block; 400 rows do
        # not divide a parity's 2,520
        monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
        exact = dist_table.dist
        for depth in (13, 14):
            dist = exact.copy()
            dist[dist >= depth] = tables._UNREACHED
            count = tables._pull_level(dist, depth, tables._rank_colours())
            assert count == EXPECTED_HISTOGRAM[depth]
            assert np.array_equal(dist, np.where(exact <= depth, exact, tables._UNREACHED))

    @pytest.mark.parametrize("block_rows", [tables._BLOCK_ROWS, 400])
    def test_nearest_successor_is_the_least_successor_distance(self, monkeypatch, dist_table,
                                                               block_rows):
        # the plain reference, one whole-table gather per move, on the exact
        # table and on one with a few entries changed, over every perm row
        # and over one parity's; 400 rows do not divide 5,040
        monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
        changed = dist_table.dist.copy()
        changed[[0, 5, 70_000, 2_000_000, N_STATES - 1]] = [3, 0xFF, 0, 9, 1]
        for dist in (dist_table.dist, changed):
            want = least_successor(dist).reshape(tables.N_PERM, tables.N_ORI)
            for codes in (np.arange(tables.N_PERM), tables._rank_colours()[1]):
                blocks = list(tables.nearest_successor(dist, codes))
                assert np.array_equal(np.concatenate([block for block, _ in blocks]), codes)
                got = np.concatenate([least.T for _, least in blocks])
                assert np.array_equal(got, want[codes])

    def test_every_pull_and_push_is_the_one_kernel(self, monkeypatch, fresh_heuristic):
        # the table's grid levels, verify's nearest successors and IDA*'s
        # two rings all read the one blocked pull, and the table and the ball
        # the one push; the heuristic reads the half-grid split and runs
        # no grid level
        calls = []

        def counting(name, kernel):
            def wrapper(*args, **kw):
                calls.append(name)
                return kernel(*args, **kw)
            return wrapper

        for name in ("_pull", "_push"):
            wrapper = counting(name, getattr(tables, name))
            monkeypatch.setattr(tables, name, wrapper)
            monkeypatch.setattr(solver, name, wrapper)
        grid_levels = []
        grid_level = tables._grid_level
        monkeypatch.setattr(tables, "_grid_level",
                            lambda *args: grid_levels.append(args[1]) or grid_level(*args))

        table = tables.build_distance_table()
        assert table.histogram == EXPECTED_HISTOGRAM
        assert calls == ["_push"] * 9 + ["_pull"] * 3 and grid_levels == [10, 11, 12]
        calls.clear()
        assert tables.check_exact_distances(table)[0]
        assert calls == ["_pull"]
        calls.clear()
        tables._rank_colours.cache_clear()
        solver.search_heuristic()
        assert calls == ["_push"] * 9 + ["_pull"] * 2 and grid_levels == [10, 11, 12]
        assert tables._rank_colours.cache_info().currsize == 1

    def test_half_grid_split_is_the_corner_permutation_parity(self):
        # every generalized move is a quarter turn, an odd permutation of
        # the corners, so a perm code's colour is its permutation's parity
        def parity(perm):
            return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2

        for m in GENERALIZED_MOVES:
            assert parity(apply_generalized(SOLVED, m).perm) == 1
        rows = tables._rank_colours()
        perm = move_tables()[0]
        for c in (0, 1):
            assert rows[c].size == tables.N_PERM // 2
            assert {parity(unrank(int(code) * 729).perm) for code in rows[c]} == {c}
            assert np.isin(perm[rows[c]], rows[1 - c]).all()

    def test_perm_move_table_that_is_not_bipartite_raises(self):
        # three codes on a cycle, which no colouring flips along every
        # move: code 0 is 1 move from both others, which are 1 move apart
        cycle = np.array([[1, 2] * 3, [2, 0] * 3, [0, 1] * 3], dtype=np.int32)
        with pytest.raises(RuntimeError, match="parity"):
            tables._colour_split(cycle, np.array([0, 1, 0]))


class TestDistance:
    def test_solved_is_zero(self, dist_table):
        assert dist_table.distance(SOLVED) == 0

    def test_one_turn_is_one(self, dist_table):
        assert dist_table.distance(apply(SOLVED, Move.U)) == 1

    def test_u_r_is_two(self, dist_table):
        # enumeration oracle: the state is neither solved nor any of the
        # six one-move states, and two moves reach it by construction
        state = canonicalize(apply_seq(SOLVED, [Move.U, Move.R]))
        depth_le_1 = {SOLVED}
        depth_le_1 |= {apply_generalized(SOLVED, m) for m in GENERALIZED_MOVES}
        assert state not in depth_le_1
        assert dist_table.distance(state) == 2

    def test_raw_states_are_canonicalized(self, dist_table):
        assert dist_table.distance(apply(SOLVED, Move.D)) == 1

    @pytest.mark.parametrize("rank, value", [(70_000, 0xFF), (70_000, 0)])
    def test_state_count_fails_on_unreached_or_second_solved(self, dist_table, rank, value):
        # the state count is a corollary of the exact-distance certificate
        dist = dist_table.dist.copy()
        dist[rank] = value
        assert not tables.check_exact_distances(DistanceTable(dist))[0]
        assert tables.check_exact_distances(dist_table)[0]

    def test_neighbour_gap_fails_exact_check(self, dist_table):
        # an antipode lowered from 14 to 10 is 3 away from every neighbour:
        # neighbour consistency is a corollary of the exact-distance certificate
        dist = dist_table.dist.copy()
        r = int(bucket(dist_table, 14)[0])
        dist[r] = 10
        assert {int(dist[tables.successor(r, mi)]) for mi in range(6)} == {13}
        assert not tables.check_exact_distances(DistanceTable(dist))[0]

    def test_bellman_violations_cap_the_nearest_distance(self):
        # index 1's successors are all unreached (0xFF) and its dist is 0:
        # 0xFF + 1 must not wrap to 0 and pass; index 3, unreached beside
        # unreached successors, passes the capped comparison
        dist = np.array([0, 0, 2, 0xFF, 4], dtype=np.uint8)
        nearest = np.array([1, 0xFF, 1, 0xFF, 2], dtype=np.uint8)
        assert tables._bellman_violations(dist, nearest).tolist() == [1, 4]

    def test_unreached_rank_and_successors_fail_exact_check(self, dist_table):
        # a rank and its six successors all marked unreached: the rank
        # passes the capped comparison, but each successor has a reached
        # successor of its own and is reported
        dist = dist_table.dist.copy()
        r = 1_234_567
        succ = [tables.successor(r, mi) for mi in range(6)]
        dist[[r, *succ]] = 0xFF
        assert not tables.check_exact_distances(DistanceTable(dist))[0]
        bad = tables._bellman_violations(dist, least_successor(dist)).tolist()
        assert set(succ) <= set(bad) and r not in bad

    @pytest.mark.parametrize("block_rows", [tables._BLOCK_ROWS, 400])
    def test_blocked_certificate_matches_the_whole_table_reference(self, monkeypatch, dist_table,
                                                                   block_rows):
        # count and least rank of the misses, block by block, against the
        # whole-table least successor and `_bellman_violations`; 400 rows do
        # not divide 5,040
        monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
        exact = dist_table.dist
        r = 1_234_567
        # a depth-13 local maximum, every successor at 12: lowered to 11, it
        # leaves each successor 1 + its nearest, so only its own descent fails
        peak = next(int(q) for q in bucket(dist_table, 13)
                    if all(exact[tables.successor(int(q), mi)] == 12 for mi in range(6)))
        edits = [([], []), ([123_456], [exact[123_456] ^ 1]), ([5, 70_000, 2_000_000], [0xFF] * 3),
                 ([0], [3]), ([r, *(tables.successor(r, mi) for mi in range(6))], [0xFF] * 7),
                 ([peak], [11])]
        for ranks, values in edits:
            dist = exact.copy()
            dist[ranks] = values
            bad = tables._bellman_violations(dist, least_successor(dist))
            assert tables._count_misses(dist) == (bad.size, int(bad[0]) if bad.size else -1)
            assert bool(bad.size) == bool(ranks)  # every edit is caught
            if ranks == [peak]:
                assert bad.tolist() == [peak]
            if ranks != [0]:
                ok, detail = tables.check_exact_distances(DistanceTable(dist))
                assert ok == (not bad.size)
                assert not bad.size or detail == (f"{bad.size} states not 1 + their nearest "
                                                  f"successor, first rank {int(bad[0])}")

    def test_buckets_partition_the_space(self, dist_table):
        total = sum(dist_table.count_at(d) for d in range(1, 15))
        assert total + 1 == N_STATES

    def test_rank_select_directory_is_the_depth_buckets(self, dist_table):
        table = DistanceTable(dist_table.dist)  # a fresh directory
        assert tuple(table.count_at(d) for d in range(15)) == dist_table.histogram
        assert sum(dist_table.histogram) == N_STATES
        for d in range(15):
            at_d, count = bucket(table, d), table.count_at(d)
            ks = np.arange(count) if d <= 6 else np.r_[0:100, count - 100:count]
            assert np.array_equal(table.select_at(d, ks), at_d[ks])


def traced_peak(fn, *args):
    """`fn(*args)` and the peak traced memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # A table-sized temporary, one more N_STATES byte or bool array, adds
    # 3.67 MB to a peak.  Measured with numpy 2.4.6, the build peaks
    # 5.06 MB above its table (at the depth-9 push's per-move arrays), a
    # blocked BFS level 1.66 MB above its start and the exact-distance
    # check 1.24 MB: each bound lies between its measure and the measure
    # plus one such array.
    MB = 10 ** 6

    def test_build_allocates_no_table_sized_temporary(self, monkeypatch):
        move_tables()
        tables._rank_colours()
        levels = []

        def traced(level):
            def wrapper(dist, depth, colours):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                count = level(dist, depth, colours)
                levels.append(tracemalloc.get_traced_memory()[1] - start)
                return count
            return wrapper

        table, peak = traced_peak(tables.build_distance_table)
        assert peak - table.dist.nbytes < 6.5 * self.MB
        for name in ("_grid_level", "_pull_level"):
            monkeypatch.setattr(tables, name, traced(getattr(tables, name)))
        table, _ = traced_peak(tables.build_distance_table)
        assert table.histogram == EXPECTED_HISTOGRAM
        assert len(levels) == 5 and max(levels) < 2.5 * self.MB

    def test_exact_distance_check_allocates_no_table_sized_temporary(self, table_dir):
        table = DistanceTable.load(table_dir / "distance_qtm.bin")
        move_tables()
        (ok, _), peak = traced_peak(tables.check_exact_distances, table)
        assert ok and peak < 2.5 * self.MB


class TestRankKernel:
    def test_roundtrip_exhaustive(self):
        ok, detail = tables.check_rank_roundtrip()
        assert ok, detail

    def test_rank_is_lehmer_code(self):
        # Textbook references, independent of cube's enumerations: they pin
        # the rank layout that indexes the table files.
        def lehmer(perm):
            return sum(sum(q < p for q in perm[i + 1:]) * math.factorial(len(perm) - 1 - i)
                       for i, p in enumerate(perm))

        def base3(digits):  # least significant digit first
            return sum(d * 3 ** i for i, d in enumerate(digits))

        for code in range(tables.N_PERM):
            s = unrank(code * 729)
            assert lehmer(s.perm[:7]) == code
            assert rank(s) == code * 729
        for code in range(729):
            s = unrank(code)
            assert base3(s.ori[:6]) == code
            assert rank(s) == code

    def test_move_tables_are_shared_read_only_int32(self):
        perm, ori = move_tables()
        assert move_tables()[0] is perm and move_tables()[1] is ori
        for table, shape in ((perm, (tables.N_PERM, 6)), (ori, (729, 6))):
            assert table.dtype == np.int32 and table.shape == shape
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0

    def test_rank_moves_share_one_int_per_part(self):
        # the per-rank walks read these rows; one object per distinct part
        # keeps them to a small, cache-resident set of ints
        perm, ori = move_tables()
        perm_rows, ori_rows = tables.rank_moves()
        assert perm_rows == tuple(map(tuple, (perm * 729).tolist()))
        assert ori_rows == tuple(map(tuple, ori.tolist()))
        assert len({id(x) for row in perm_rows for x in row}) == tables.N_PERM
        assert len({id(x) for row in ori_rows for x in row}) == 729

    def test_move_tables_reject_a_transform_that_is_no_permutation(self, monkeypatch):
        # a slot map that sends two slots to one cubelet maps two perm codes
        # to one key; argsort would still re-code it, so the sorted-key check
        # must fail loudly instead
        move = GENERALIZED_MOVES[0]
        src, dori = cube._MOVE_TABLE[move]
        monkeypatch.setitem(cube._MOVE_TABLE, move, ((src[1], *src[1:]), dori))
        with pytest.raises(RuntimeError, match="does not permute the enumeration"):
            cube.move_tables.__wrapped__()

    def test_successors_match_scalar_apply(self):
        # A generalized move permutes slots whatever the twists are and adds
        # twists whatever cubelets sit where, so checking every (perm code,
        # move) and every (twist code, move) covers every (rank, move).  Each
        # code is paired with a spread of codes of the other coordinate.
        perm_moves, ori_moves = move_tables()
        pairs = [(p, (p * 7) % 729) for p in range(tables.N_PERM)]
        pairs += [((o * 11) % tables.N_PERM, o) for o in range(729)]
        for p, o in pairs:
            s = unrank(p * 729 + o)
            for mi, m in enumerate(GENERALIZED_MOVES):
                child = apply_generalized(s, m).rank
                assert divmod(child, 729) == (perm_moves[p, mi], ori_moves[o, mi])

    @given(st.integers(0, N_STATES - 1), st.integers(0, 5))
    def test_successor_is_scalar_apply(self, r, mi):
        assert tables.successor(r, mi) == apply_generalized(unrank(r), GENERALIZED_MOVES[mi]).rank

    @given(st.integers(0, N_STATES - 1), st.integers(0, 5))
    def test_inverse_move_undoes_successor(self, r, mi):
        inv = GENERALIZED_MOVES.index(inverse(GENERALIZED_MOVES[mi]))
        assert tables.successor(tables.successor(r, mi), inv) == r


def heuristic(pdb: PatternDB, r: int) -> int:
    """The pattern-database bound of rank `r`, from its two coordinates."""
    return max(int(pdb.ori_db[r % 729]), int(pdb.perm_db[r // 729]))


class TestPatternDB:
    def test_heuristic_zero_at_solved(self, pdb):
        assert heuristic(pdb, 0) == 0

    def test_admissible_everywhere(self, dist_table, pdb):
        assert np.all(np.maximum(pdb.perm_db[:, None], pdb.ori_db).ravel() <= dist_table.dist)

    def test_nonzero_on_abstractly_unsolved_states(self, pdb):
        state = apply(SOLVED, Move.R)  # both abstractions leave solved
        r = canonicalize(state).rank
        assert heuristic(pdb, r) >= 1

    def test_projections_are_the_quotient_distances(self, dist_table):
        # the reference: a plain BFS over each coordinate move table
        def bfs(moves):
            dist, frontier = [0] + [None] * (len(moves) - 1), [0]
            while frontier:
                found = []
                for node in frontier:
                    for child in moves[node]:
                        if dist[child] is None:
                            dist[child] = dist[node] + 1
                            found.append(child)
                frontier = found
            return dist

        pdb = tables.build_pattern_dbs(dist_table)
        perm, ori = move_tables()
        assert pdb.ori_db.tolist() == bfs(ori.tolist())
        assert pdb.perm_db.tolist() == bfs(perm.tolist())

    def test_abstraction_projections_from_rank_layout(self, pdb, dist_table):
        rng = np.random.default_rng(23)
        for _ in range(200):
            r = int(rng.integers(0, N_STATES))
            assert heuristic(pdb, r) <= int(dist_table.dist[r])


class TestPersistence:
    def test_distance_table_roundtrip(self, dist_table, tmp_path):
        path = tmp_path / "full.bin"
        dist_table.save(path)
        loaded = DistanceTable.load(path)
        assert np.array_equal(loaded.dist, dist_table.dist)
        assert loaded.histogram == dist_table.histogram

    def test_pattern_db_roundtrip(self, pdb, tmp_path):
        pdb.save(tmp_path / "o.bin", tmp_path / "p.bin")
        loaded = PatternDB.load(tmp_path / "o.bin", tmp_path / "p.bin")
        assert np.array_equal(loaded.ori_db, pdb.ori_db)
        assert np.array_equal(loaded.perm_db, pdb.perm_db)
        assert not loaded.ori_db.flags.writeable and not loaded.perm_db.flags.writeable

    def test_pattern_db_with_wrong_content(self, pdb, tmp_path):
        # well-formed, valid CRC, but one file's distances are wrong
        for ori, perm, wrong in wrong_pdbs(pdb):
            PatternDB(ori, perm).save(tmp_path / "ori.bin", tmp_path / "perm.bin")
            with pytest.raises(InconsistentTable, match=f"{wrong}.bin"):
                PatternDB.load(tmp_path / "ori.bin", tmp_path / "perm.bin")

    def test_files_are_byte_identical_to_reference(self, dist_table, pdb, tmp_path):
        dist_table.save(tmp_path / "distance_qtm.bin")
        pdb.save(tmp_path / "pdb_ori.bin", tmp_path / "pdb_perm.bin")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in REFERENCE_SHA256}
        assert digests == REFERENCE_SHA256

    def test_built_table_is_exact_and_has_the_pinned_payload(self, dist_table):
        # the pin that the table-reading commands compare is the certified table
        ok, detail = tables.check_exact_distances(dist_table)
        assert ok, detail
        assert zlib.crc32(dist_table.dist) == tables.EXACT_DIST_CRC == 0x30A4A9B2
        assert dist_table.dist.size == N_STATES

    def test_save_is_deterministic(self, pdb, tmp_path):
        pdb.save(tmp_path / "a.bin", tmp_path / "ap.bin")
        pdb.save(tmp_path / "b.bin", tmp_path / "bp.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_truncated_file(self, pdb, tmp_path):
        path = tmp_path / "o.bin"
        pdb.save(path, tmp_path / "p.bin")
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(TruncatedFile):
            PatternDB.load(path, tmp_path / "p.bin")

    def test_flipped_payload_byte(self, pdb, tmp_path):
        path = tmp_path / "o.bin"
        pdb.save(path, tmp_path / "p.bin")
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            PatternDB.load(path, tmp_path / "p.bin")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTATABL" + b"\0" * 32)
        with pytest.raises(BadMagic):
            DistanceTable.load(path)

    def test_bad_version(self, pdb, tmp_path):
        path = tmp_path / "o.bin"
        pdb.save(path, tmp_path / "p.bin")
        blob = bytearray(path.read_bytes())
        blob[8] = 9  # version field
        path.write_bytes(bytes(blob))
        with pytest.raises(BadVersion):
            PatternDB.load(path, tmp_path / "p.bin")

    def test_unknown_metric_byte(self, pdb, tmp_path):
        path = tmp_path / "o.bin"
        pdb.save(path, tmp_path / "p.bin")
        blob = bytearray(path.read_bytes())
        blob[12] = 1  # metric byte; only 0 (QTM) is defined
        path.write_bytes(bytes(blob))
        with pytest.raises(TableFormatError, match="unknown metric byte 1"):
            PatternDB.load(path, tmp_path / "p.bin")

    def test_wrong_kind(self, pdb, dist_table, tmp_path):
        dist_table.save(tmp_path / "full.bin")
        with pytest.raises(TableFormatError):
            PatternDB.load(tmp_path / "full.bin", tmp_path / "full.bin")

    def test_trailing_bytes(self, pdb, tmp_path):
        path = tmp_path / "o.bin"
        pdb.save(path, tmp_path / "p.bin")
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TableFormatError):
            PatternDB.load(path, tmp_path / "p.bin")
