import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pocketcube import solver, tables
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

        def counting(dist, depth, limit, scratch):
            depths.append(depth)
            return grid_level(dist, depth, limit, scratch)

        monkeypatch.setattr(tables, "_grid_level", counting)
        assert tables.build_distance_table().histogram == EXPECTED_HISTOGRAM
        assert depths == [10, 11, 12]

    def test_search_heuristic_runs_no_whole_grid_level(self, monkeypatch, pdb):
        # solve's set-up, IDA*'s heuristic on a fresh PatternDB, takes its
        # parity from the perm PDB: it builds neither the half-grid split
        # nor the 7.3 MB of scratch a whole-grid level needs
        calls = []
        monkeypatch.setattr(tables, "_grid_level", lambda *args, **kw: calls.append(args))
        tables._rank_colours.cache_clear()
        fresh = PatternDB(pdb.ori_db, pdb.perm_db)
        assert fresh.ida_heuristic is None
        solver.search_heuristic(fresh)
        assert calls == []
        assert tables._rank_colours.cache_info().currsize == 0

    def test_half_grid_split_is_the_corner_permutation_parity(self):
        # every generalized move is a quarter turn, an odd permutation of
        # the corners, so a perm code's colour is its permutation's parity
        def parity(perm):
            return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2

        for m in GENERALIZED_MOVES:
            assert parity(apply_generalized(SOLVED, m).perm) == 1
        rows, src = tables._rank_colours()
        perm = move_tables()[0]
        for c in (0, 1):
            assert rows[c].size == tables.N_PERM // 2
            assert {parity(unrank(int(code) * 729).perm) for code in rows[c]} == {c}
            assert np.array_equal(rows[1 - c][src[c]], perm[rows[c]].T)

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

    def test_neighbor_consistency_exhaustive(self, dist_table):
        ok, detail = tables.check_neighbor_consistency(dist_table)
        assert ok, detail

    @pytest.mark.parametrize("rank, value, detail", [
        (70_000, 0xFF, "3674159 states reached, depth-0 count 1"),
        (70_000, 0, "3674160 states reached, depth-0 count 2"),
    ])
    def test_state_count_fails_on_unreached_or_second_solved(self, dist_table, rank, value,
                                                             detail):
        dist = dist_table.dist.copy()
        dist[rank] = value
        assert tables.check_state_count(DistanceTable(dist)) == (False, detail)
        assert tables.check_state_count(dist_table) == (
            True, "3674160 states reached, depth-0 count 1")

    def test_one_gather_pass_feeds_both_checks(self, dist_table):
        # an antipode lowered from 14 to 10 is 3 away from every neighbour
        dist = dist_table.dist.copy()
        dist[int(bucket(dist_table, 14)[0])] = 10
        table = tables.DistanceTable(dist)
        summary = tables.successor_summary(table)
        assert summary[1] == [3] * 6
        for check in (tables.check_neighbor_consistency, tables.check_exact_distances):
            assert check(table, summary) == check(table)
        assert tables.check_neighbor_consistency(table) == (False, "move 0: distance gap 3")
        assert not tables.check_exact_distances(table)[0]

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
        ok, detail = tables.check_admissibility(dist_table, pdb)
        assert ok, detail

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
        dense = pdb.dense_heuristic()
        rng = np.random.default_rng(23)
        for _ in range(200):
            r = int(rng.integers(0, N_STATES))
            assert int(dense[r]) == heuristic(pdb, r)
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
