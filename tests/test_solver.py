import hashlib

import numpy as np
import pytest

from pocketcube import solver, tables
from pocketcube.cube import (
    ANCHOR,
    GENERALIZED_MOVES,
    N_ORI,
    N_PERM,
    N_STATES,
    SOLVED,
    Move,
    apply_seq,
    canonicalize,
    format_moves,
    is_solved,
    random_canonical,
    unrank,
)
from pocketcube.solver import (OUTER, PERIMETER, RING, TAIL, SolveResult, ida_star,
                               oracle_solve, search_heuristic)
from pocketcube.tables import _INV, PatternDB, move_tables, successor

from conftest import apply_generalized, bucket, inverse, plain_ida_star

# sha256 of IDA*'s solutions to the first 100 random_canonical draws of
# default_rng(0), one format_moves line each, as first computed: at its
# final bound IDA* returns the first optimal path in its fixed child order,
# so a change of heuristic must leave these solutions byte for byte alone
REFERENCE_SOLUTIONS_SHA256 = "264bd7683a39c50c285dec2c2eed0ec96a5957ba2078472836ec700a3e04c703"

# IDA*'s node and iteration totals over the first 4,000 random_canonical
# draws of default_rng(0), and the sha256 of one "solution nodes bounds"
# line per antipode in rank order, as the search computed them before it
# walked the perimeter by stored moves: the walk counts a node per rank on
# it, as the search did, and perfbench's per-depth node counts read them
REFERENCE_NODES, REFERENCE_ITERATIONS = 48_119, 4_974
REFERENCE_ANTIPODES_SHA256 = "488b6e5adb887de4551166c97e3f21ddf5fee14b5942c5e04803f6df7a9d2446"

# sha256 of search_heuristic's 3,674,160 bytes as first built by its own
# push and ring, and with the outer ring's moves as well: a change of the
# kernels that build them must leave every byte, h and stored move alike,
# as it is
REFERENCE_HEURISTIC_SHA256 = "0d10a6173db4456bea72be4694464baa35e37fb2d14dfa12a822ab08c3d6888d"
OUTER_HEURISTIC_SHA256 = "1439e592f7f30523a74b96510e213bb5665ce40eab184cb18af311817d09968d"


class TestIdaStar:
    def test_solved_needs_nothing(self, pdb):
        res = ida_star(SOLVED, pdb)
        assert res.solution == []
        assert res.iterations == 0
        assert res.nodes_expanded == 0

    def test_distance_one_states(self, pdb):
        for m in GENERALIZED_MOVES:
            state = apply_generalized(SOLVED, m)
            res = ida_star(state, pdb)
            assert res.solution == [inverse(m)]

    def test_optimal_on_random_states(self, dist_table, pdb):
        rng = np.random.default_rng(31)
        for _ in range(300):
            s = random_canonical(rng)
            res = ida_star(s, pdb)
            assert len(res.solution) == dist_table.distance(s)
            assert is_solved(apply_seq(s, res.solution))

    def test_deterministic(self, pdb):
        s = unrank(1_234_567)
        a = ida_star(s, pdb)
        b = ida_star(s, pdb)
        assert a.solution == b.solution
        assert a.nodes_expanded == b.nodes_expanded
        assert a.iterations == b.iterations

    def test_monotone_deepening(self, dist_table, pdb):
        # first bound is the solver's h(root), with the parity of the root's
        # distance; bounds step by exactly 2 up to the exact distance, since
        # along every move g grows by 1 and h changes by exactly 1
        rng = np.random.default_rng(32)
        for _ in range(50):
            s = random_canonical(rng)
            res = ida_star(s, pdb)
            dist = dist_table.distance(s)
            assert res.bounds[0] == search_heuristic(pdb)[s.rank] & 0x0F
            assert res.bounds[0] % 2 == dist % 2
            assert all(b - a == 2 for a, b in zip(res.bounds, res.bounds[1:]))
            assert res.bounds[-1] == dist
            assert res.iterations == len(res.bounds)

    def test_antipode_solves_at_14(self, dist_table, pdb):
        r = int(bucket(dist_table, 14)[0])
        res = ida_star(unrank(r), pdb)
        assert len(res.solution) == 14

    def test_solutions_are_byte_identical_to_reference(self, pdb):
        rng = np.random.default_rng(0)
        lines = "".join(format_moves(ida_star(random_canonical(rng), pdb).solution) + "\n"
                        for _ in range(100))
        assert hashlib.sha256(lines.encode()).hexdigest() == REFERENCE_SOLUTIONS_SHA256

    def test_node_and_iteration_totals_are_the_reference(self, pdb):
        rng = np.random.default_rng(0)
        results = [ida_star(random_canonical(rng), pdb) for _ in range(4000)]
        assert sum(res.nodes_expanded for res in results) == REFERENCE_NODES
        assert sum(res.iterations for res in results) == REFERENCE_ITERATIONS

    def test_result_is_immutable_with_its_field_names(self, pdb):
        res = ida_star(unrank(1_234_567), pdb)
        assert SolveResult._fields == ("solution", "nodes_expanded", "iterations", "bounds")
        with pytest.raises(AttributeError):
            res.nodes_expanded = 0
        assert SolveResult([], 0, 0).bounds == ()

    def test_equals_a_plain_search_beyond_the_ball(self, dist_table, pdb):
        # the ball walks, the ring and the bound steps of 2 are shortcuts:
        # solutions, node counts, iterations and bounds are those of a plain
        # IDA* on the same heuristic, on every antipode and on 300 seeded
        # ranks at each distance 10..13
        h = bytes(np.frombuffer(search_heuristic(pdb), dtype=np.uint8) & 0x0F)
        rng = np.random.default_rng(36)
        ranks = bucket(dist_table, 14).tolist()
        for d in range(RING, 14):
            at_d = bucket(dist_table, d)
            ranks += at_d[rng.choice(at_d.size, size=300, replace=False)].tolist()
        for r in ranks:
            assert ida_star(unrank(r), pdb) == plain_ida_star(r, h)

    def test_equals_a_plain_search_at_smaller_perimeters(self, dist_table, pdb, monkeypatch):
        # the search counts by parity, not by the default's depths: at
        # PERIMETER 6, 7 and 8, on a fresh PatternDB so that `pdb` keeps its
        # heuristic, ida_star equals a plain IDA* on that P's heuristic nibble
        # and returns the default's solution, on 20 seeded ranks at each
        # distance 1..14
        rng = np.random.default_rng(40)
        ranks = []
        for d in range(1, 15):
            at_d = bucket(dist_table, d)
            ranks += at_d[rng.choice(at_d.size, size=min(20, at_d.size), replace=False)].tolist()
        default = [ida_star(unrank(r), pdb).solution for r in ranks]
        for p in (6, 7, 8):
            monkeypatch.setattr(solver, "PERIMETER", p)
            monkeypatch.setattr(solver, "RING", p + 1)
            monkeypatch.setattr(solver, "OUTER", p + 2)
            small = PatternDB(pdb.ori_db, pdb.perm_db)
            h = bytes(np.frombuffer(search_heuristic(small), dtype=np.uint8) & 0x0F)
            for r, solution in zip(ranks, default):
                res = ida_star(unrank(r), small)
                assert res == plain_ida_star(r, h)
                assert res.solution == solution

    def test_antipodes_are_byte_identical_to_reference(self, dist_table, pdb):
        lines = ""
        for r in bucket(dist_table, 14):
            res = ida_star(unrank(int(r)), pdb)
            lines += f"{format_moves(res.solution)} {res.nodes_expanded} {res.bounds}\n"
        assert hashlib.sha256(lines.encode()).hexdigest() == REFERENCE_ANTIPODES_SHA256


class TestSearchHeuristic:
    def test_bytes_are_the_reference(self, pdb):
        # the outer ring only adds moves: with them masked back to no move,
        # the bytes are those from before it
        byte = np.frombuffer(search_heuristic(pdb), dtype=np.uint8)
        assert hashlib.sha256(byte).hexdigest() == OUTER_HEURISTIC_SHA256
        masked = byte.copy()
        masked[(masked & 15) == OUTER] |= 0x70
        assert hashlib.sha256(masked).hexdigest() == REFERENCE_HEURISTIC_SHA256

    def test_exact_in_perimeter_parity_bound_beyond(self, dist_table, pdb):
        h = np.frombuffer(search_heuristic(pdb), dtype=np.uint8) & 0x0F
        dist = dist_table.dist
        inside = dist <= PERIMETER
        assert np.all(h <= dist)
        assert np.array_equal(h[inside], dist[inside])
        beyond = dist[~inside]
        assert np.array_equal(h[~inside], PERIMETER + 1 + ((beyond - PERIMETER - 1) & 1))
        assert np.array_equal(h % 2, dist % 2)

    def test_consistent_one_per_move(self, pdb):
        # every move changes h by at most 1, and by an odd amount: h's parity
        # is its perm code's, which every move flips; so by exactly 1
        h = np.frombuffer(search_heuristic(pdb), dtype=np.uint8) & 0x0F
        grid = h.reshape(N_PERM, N_ORI).astype(np.int16)
        perm, ori = move_tables()
        gaps = [int(np.abs(grid[perm[:, mi]][:, ori[:, mi]] - grid).max()) for mi in range(6)]
        assert gaps == [1] * 6
        colour = pdb.perm_db % 2
        assert np.all(grid % 2 == colour[:, None])
        assert np.all(colour[perm] != colour[:, None])

    def test_ball_stores_its_first_move_one_closer(self, dist_table, pdb):
        # bits 4-6 of every rank at distance 1..OUTER, the ball and both
        # rings, hold the first move in child order whose successor is one
        # move closer; solved holds 0 and every rank beyond 7, no move
        byte = np.frombuffer(search_heuristic(pdb), dtype=np.uint8)
        dist = dist_table.dist.astype(np.int16)
        grid = dist.reshape(N_PERM, N_ORI)
        perm, ori = move_tables()
        first = np.full(N_STATES, -1, dtype=np.int16)
        for mi in reversed(range(6)):
            succ = grid[np.ix_(perm[:, mi], ori[:, mi])].reshape(N_STATES)
            first[succ == dist - 1] = mi
        stored = (dist >= 1) & (dist <= OUTER)
        assert np.array_equal(byte[stored] >> 4, first[stored])
        assert byte[0] >> 4 == 0
        assert np.all(byte[dist > OUTER] >> 4 == 7)

    def test_cached_per_pattern_db(self, pdb):
        assert search_heuristic(pdb) is search_heuristic(pdb)
        tails = pdb.ida_tails
        search_heuristic(pdb)
        assert pdb.ida_tails is tails

    def test_tails_are_the_stored_walks_of_every_rank_near_solved(self, dist_table, pdb):
        # once every rank within TAIL moves of solved has been walked, the
        # memo holds exactly those ranks, each mapped to the walk of its
        # stored moves, as long as its distance, that ends at solved; the
        # session's memo holds some of them already, whatever the test order
        h = search_heuristic(pdb)
        tails = pdb.ida_tails
        near = np.flatnonzero(dist_table.dist <= TAIL)
        for r in near.tolist():
            solver._walk(pdb, r, int(dist_table.dist[r]))
        assert sorted(tails) == near.tolist()
        assert len(tails) == 2_944
        for r in near.tolist():
            walk, end = [], r
            for _ in range(dist_table.dist[r]):
                walk.append(h[end] >> 4)
                end = successor(end, walk[-1])
            assert end == 0
            assert tails[r] == tuple(GENERALIZED_MOVES[mi] for mi in walk)
            state = unrank(r)
            for move in tails[r]:
                state = apply_generalized(state, move)
            assert state.rank == 0

    def test_parity_bound_is_certified(self, monkeypatch, pdb):
        # the parity bound holds only if every move flips a rank's row
        # colour; a colouring that no move flips must stop the build
        monkeypatch.setattr(tables, "perm_parity", lambda: np.zeros(N_PERM, dtype=np.uint8))
        tables._rank_colours.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="parity"):
                search_heuristic(PatternDB(pdb.ori_db, pdb.perm_db))
        finally:
            tables._rank_colours.cache_clear()

    def test_memo_fills_itself_with_the_walks_last_steps(self, dist_table, pdb):
        # a fresh heuristic's memo holds solved alone; one solve of a root
        # at distance 8 walks its stored moves and memoizes the 5 ranks of
        # the walk's last 5 steps, nothing else
        fresh = PatternDB(pdb.ori_db, pdb.perm_db)
        h = search_heuristic(fresh)
        assert fresh.ida_tails == {0: ()}
        root = int(bucket(dist_table, 8)[0])
        walk, r = [], root
        for _ in range(8):
            walk.append(r)
            r = successor(r, h[r] >> 4)
        res = ida_star(unrank(root), fresh)
        assert res.nodes_expanded == 8
        assert sorted(fresh.ida_tails) == sorted([0, *walk[-TAIL:]])
        for r in walk[-TAIL:]:
            assert fresh.ida_tails[r] == tuple(res.solution[walk.index(r):])

    def test_one_iteration_inside_perimeter(self, dist_table, pdb):
        # exact h: the root's bound is its distance, and only the nodes on
        # the first optimal path are expanded
        rng = np.random.default_rng(35)
        for d in range(1, PERIMETER + 1):
            at_d = bucket(dist_table, d)
            for i in rng.choice(at_d.size, size=min(50, at_d.size), replace=False):
                res = ida_star(unrank(int(at_d[i])), pdb)
                assert res.bounds == (d,)
                assert res.nodes_expanded == d

    def test_one_iteration_on_the_outer_ring(self, dist_table, pdb):
        # a root at OUTER is walked: each child before its stored move is at
        # OUTER + 1, a one-node dead end, and then the ring walks the rest
        h = search_heuristic(pdb)
        at_outer = bucket(dist_table, OUTER)
        rng = np.random.default_rng(37)
        for r in at_outer[rng.choice(at_outer.size, size=300, replace=False)].tolist():
            res = ida_star(unrank(r), pdb)
            assert res.bounds == (OUTER,)
            assert res.nodes_expanded == OUTER + (h[r] >> 4)
            assert len(res.solution) == OUTER

    def test_one_scan_at_distance_12(self, dist_table, pdb):
        # bound RING fails after the root; at RING + 2 the root's first m
        # children, at 13, are dead ends of 1 + 5 nodes, and its first child
        # at 11 costs OUTER + the index of its own first move among the five
        # moves allowed after m, then is walked
        dist = dist_table.dist
        at_12 = bucket(dist_table, 12)
        rng = np.random.default_rng(38)
        for r in at_12[rng.choice(at_12.size, size=300, replace=False)].tolist():
            m = next(mi for mi in range(6) if dist[successor(r, mi)] == 11)
            child = successor(r, m)
            s = next(mi for mi in range(6) if dist[successor(child, mi)] == 10)
            index = [mi for mi in range(6) if mi != _INV[m]].index(s)
            res = ida_star(unrank(r), pdb)
            assert res.bounds == (RING, RING + 2)
            assert res.nodes_expanded == 2 + 6 * m + OUTER + index
            assert len(res.solution) == 12

    def test_search_nests_once_per_move_beyond_the_outer_ring(self, dist_table, pdb,
                                                              monkeypatch):
        # `_search` is entered only for roots beyond OUTER, and nests one
        # level at 12, two at 13 and three at 14; at 13 the failed first
        # iteration costs the root and its six ring dead ends, 7 nodes
        depth, calls = [0], []
        search = solver._search

        def counted(*args):
            depth[0] += 1
            level = depth[0]
            found = search(*args)
            depth[0] -= 1
            calls.append((level, found[0]))
            return found

        monkeypatch.setattr(solver, "_search", counted)
        rng = np.random.default_rng(39)
        ranks = bucket(dist_table, 14).tolist()
        for d in range(1, 14):
            at_d = bucket(dist_table, d)
            size = 300 if d == 13 else min(50, at_d.size)
            ranks += at_d[rng.choice(at_d.size, size=size, replace=False)].tolist()
        for r in ranks:
            d = int(dist_table.dist[r])
            calls.clear()
            res = ida_star(unrank(r), pdb)
            assert max((level for level, _ in calls), default=0) == {12: 1, 13: 2, 14: 3}.get(d, 0)
            if d == 13:
                assert res.bounds == (OUTER, OUTER + 2)
                assert res.nodes_expanded == 7 + calls[-1][1]


class TestOracle:
    def test_solved(self, dist_table):
        assert oracle_solve(SOLVED, dist_table) == []

    def test_distance_one(self, dist_table):
        for m in GENERALIZED_MOVES:
            state = apply_generalized(SOLVED, m)
            sol = oracle_solve(state, dist_table)
            assert sol == [inverse(m)]

    def test_length_matches_distance_at_every_depth(self, dist_table):
        rng = np.random.default_rng(33)
        for d in range(1, 15):
            at_d = bucket(dist_table, d)
            for i in rng.integers(0, at_d.size, size=5):
                s = unrank(int(at_d[i]))
                sol = oracle_solve(s, dist_table)
                assert len(sol) == d
                assert is_solved(apply_seq(s, sol))

    def test_agrees_with_ida_star_lengths(self, dist_table, pdb):
        rng = np.random.default_rng(34)
        for _ in range(100):
            s = unrank(int(rng.integers(0, N_STATES)))
            assert len(oracle_solve(s, dist_table)) == len(ida_star(s, pdb).solution)


class TestStateInput:
    def test_raw_state_solves_as_its_canonical_form(self, dist_table, pdb):
        # a raw state is canonicalized first; a canonical one is ranked as it is
        rng = np.random.default_rng(35)
        moves = list(Move)
        raw_seen = 0
        for _ in range(50):
            raw = apply_seq(SOLVED, [moves[i] for i in rng.integers(0, len(moves), size=10)])
            raw_seen += raw.perm[ANCHOR] != ANCHOR or raw.ori[ANCHOR] != 0
            canon = canonicalize(raw)
            assert ida_star(raw, pdb) == ida_star(canon, pdb)
            assert (oracle_solve(raw, dist_table) == oracle_solve(canon, dist_table)
                    == oracle_solve(unrank(canon.rank), dist_table))
        assert raw_seen > 25
