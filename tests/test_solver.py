import hashlib

import numpy as np
import pytest

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
from pocketcube.solver import (PERIMETER, TAIL, SolveResult, ida_star, oracle_descent,
                               oracle_solve, search_heuristic)
from pocketcube.tables import DistanceTable, move_tables, successor, successor_summary

from conftest import apply_generalized, bucket, inverse

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

    def test_antipodes_are_byte_identical_to_reference(self, dist_table, pdb):
        lines = ""
        for r in bucket(dist_table, 14):
            res = ida_star(unrank(int(r)), pdb)
            lines += f"{format_moves(res.solution)} {res.nodes_expanded} {res.bounds}\n"
        assert hashlib.sha256(lines.encode()).hexdigest() == REFERENCE_ANTIPODES_SHA256


class TestSearchHeuristic:
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
        assert successor_summary(DistanceTable(h))[1] == [1] * 6
        colour = pdb.perm_db % 2
        assert np.all(h.reshape(N_PERM, N_ORI) % 2 == colour[:, None])
        assert np.all(colour[move_tables()[0]] != colour[:, None])

    def test_ball_stores_its_first_move_one_closer(self, dist_table, pdb):
        # bits 4-6 of every rank at distance 1..PERIMETER hold the first
        # move in child order whose successor is one move closer; solved
        # and every rank beyond the ball hold none
        byte = np.frombuffer(search_heuristic(pdb), dtype=np.uint8)
        dist = dist_table.dist.astype(np.int16)
        grid = dist.reshape(N_PERM, N_ORI)
        perm, ori = move_tables()
        first = np.full(N_STATES, -1, dtype=np.int16)
        for mi in reversed(range(6)):
            succ = grid[np.ix_(perm[:, mi], ori[:, mi])].reshape(N_STATES)
            first[succ == dist - 1] = mi
        ball = (dist >= 1) & (dist <= PERIMETER)
        assert np.array_equal(byte[ball] >> 4, first[ball])
        assert not np.any(byte[~ball] >> 4)

    def test_cached_per_pattern_db(self, pdb):
        assert search_heuristic(pdb) is search_heuristic(pdb)
        tails = pdb.ida_tails
        search_heuristic(pdb)
        assert pdb.ida_tails is tails

    def test_tails_are_the_stored_walks_of_every_rank_near_solved(self, dist_table, pdb):
        # the memo holds exactly the ranks within TAIL moves of solved, each
        # mapped to the walk of its stored moves, as long as its distance,
        # that ends at solved
        h = search_heuristic(pdb)
        tails = pdb.ida_tails
        near = np.flatnonzero(dist_table.dist <= TAIL)
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
                    == oracle_descent(canon.rank, dist_table))
        assert raw_seen > 25
