"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavy criteria (3 and 10) dominate the runtime.
"""

import math
import time

import numpy as np
from scipy import stats

from pocketcube import tables
from pocketcube.cube import (
    GENERALIZED_MOVES,
    N_STATES,
    Move,
    apply,
    apply_seq,
    canonicalize,
    is_solved,
    random_canonical,
    reduce_move,
    unrank,
)
from pocketcube.evaluate import (
    ExperimentConfig,
    oracle_planner,
    run_experiment,
    sample_at_distance,
)
from pocketcube.executor import (
    ActuationModel,
    ExecutionMode,
    ExecutorConfig,
    PhysicalCube,
    attempt_rotate,
    attempt_twist,
    execute_episode,
)
from pocketcube.solver import ida_star, oracle_solve

from conftest import apply_generalized, bucket, compile_moves, result_row

P_ROT = 0.952   # measured re-pose success rate, used as a parameter
P_OP = 0.923    # measured twist success rate, used as a parameter


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_state_space_count(dist_table):
    reached = int(np.count_nonzero(dist_table.dist != 0xFF))
    total = sum(dist_table.histogram)
    ok = reached == 3_674_160 and total == 3_674_160
    _report(1, ok, f"BFS enumerated {reached} canonical states (exact)")


def test_c02_qtm_diameter(dist_table):
    depth = dist_table.max_depth
    _report(2, depth == 14, f"maximum distance in the table is {depth}")


def test_c03_solver_optimality(dist_table, pdb):
    t0 = time.time()
    rng = np.random.default_rng(103)
    ranks = [int(r) for r in rng.integers(0, N_STATES, size=1000)]
    for d in (1, 2, 13, 14):
        at_d = bucket(dist_table, d)
        if at_d.size > 1000:
            picks = np.linspace(0, at_d.size - 1, 1000).astype(np.int64)
            ranks.extend(int(at_d[i]) for i in picks)
        else:
            ranks.extend(int(r) for r in at_d)
    for r in ranks:
        state = unrank(r)
        res = ida_star(state, pdb)
        assert len(res.solution) == int(dist_table.dist[r]), r
        assert is_solved(apply_seq(state, res.solution)), r
    _report(3, True,
            f"{len(ranks)} IDA* solves optimal and correct in {time.time()-t0:.0f}s")


def test_c04_pdb_admissibility(dist_table, pdb):
    dense = np.maximum(pdb.perm_db[:, None], pdb.ori_db).ravel()  # rank = perm * 729 + ori
    bad = int(np.count_nonzero(dense > dist_table.dist))
    _report(4, bad == 0, f"max(ori, perm) <= exact distance over all states "
                         f"({bad} states with heuristic above the exact distance)")


def test_c05_rank_bijectivity():
    ok, detail = tables.check_rank_roundtrip()
    _report(5, ok, detail)


def test_c06_move_reduction_soundness():
    rng = np.random.default_rng(106)
    states = [random_canonical(rng) for _ in range(100)]
    checked = 0
    for move in Move:
        if move in GENERALIZED_MOVES:
            continue
        g = reduce_move(move)
        for s in states:
            assert canonicalize(apply(s, move)) == apply_generalized(s, g), \
                (move.value, g.value)
            checked += 1
    _report(6, True, f"6 derived equivalents verified on 100 states each "
                     f"({checked} identities)")


def test_c07_compiler_executor_composition(dist_table):
    perfect = ActuationModel(p_rot=1.0, p_op=1.0)
    config = ExecutorConfig()
    rng = np.random.default_rng(107)
    planner = oracle_planner(dist_table)
    for trial in range(1000):
        scramble = random_canonical(rng)
        solution = oracle_solve(scramble, dist_table)
        report = execute_episode(scramble.rank, ExecutionMode.ROLLBACK, planner,
                                 perfect, config, np.random.default_rng((107, trial)),
                                 trace=True)
        assert report.success
        expected_an = sum(2 if m.is_prime else 4 for m in solution)
        assert report.atomic_actions == expected_an
        # logical trajectory hits every apply_seq prefix at move boundaries
        boundary = 0
        state = scramble
        for move in solution:
            boundary += 2 if move.is_prime else 4
            state = apply_generalized(state, move)
            assert report.trace[boundary - 1].rank == state.rank
    _report(7, True, "1000 perfect-actuator plans reproduce apply_seq with "
                     "AN = sum(2 prime / 4 plain)")


def test_c08_actuator_calibration():
    model = ActuationModel()
    assert model.p_rot == P_ROT and model.p_op == P_OP
    n = 10_000
    rng = np.random.default_rng(108)
    cube = PhysicalCube.at_rest(0)
    step = compile_moves([Move.U_PRIME])[0]
    rot_hits = sum(attempt_rotate(cube, step, model, rng) for _ in range(n))
    twist_hits = 0
    for _ in range(n):
        cube.layer_misalignment = 0.0
        twist_hits += attempt_twist(cube, model, rng)
    rot_sigma = math.sqrt(P_ROT * (1 - P_ROT) / n)
    twist_sigma = math.sqrt(P_OP * (1 - P_OP) / n)
    rot_err = abs(rot_hits / n - P_ROT)
    twist_err = abs(twist_hits / n - P_OP)
    ok = rot_err <= 3 * rot_sigma and twist_err <= 3 * twist_sigma
    _report(8, ok, f"rotate {rot_hits/n:.4f} (|err| {rot_err:.4f} <= {3*rot_sigma:.4f}), "
                   f"twist {twist_hits/n:.4f} (|err| {twist_err:.4f} <= {3*twist_sigma:.4f})")


def test_c09_open_loop_product_law(dist_table):
    n = 10_000
    model = ActuationModel()
    config = ExecutorConfig()
    planner = oracle_planner(dist_table)
    scrambles = sample_at_distance(5, n, dist_table, np.random.default_rng(109))
    products = np.empty(n)
    clean = 0
    for i, r in enumerate(scrambles):
        solution = oracle_solve(unrank(r), dist_table)
        products[i] = math.prod(
            model.p_rot * model.p_op ** (1 if m.is_prime else 3) for m in solution)
        report = execute_episode(r, ExecutionMode.OPEN_LOOP, planner,
                                 model, config, np.random.default_rng((109, i)), trace=True)
        clean += all(e.success for e in report.trace)
    expected = float(products.mean())
    sigma = math.sqrt(float((products * (1 - products)).sum())) / n
    err = abs(clean / n - expected)
    ok = err <= 3 * sigma
    _report(9, ok, f"zero-failure fraction {clean/n:.4f} vs product {expected:.4f} "
                   f"(|err| {err:.4f} <= {3*sigma:.4f}, n={n})")


def test_c10_rollback_domination(dist_table):
    t0 = time.time()
    config = ExperimentConfig(trials_per_distance=1000, master_seed=110)
    result = run_experiment(config, dist_table)
    n = config.trials_per_distance
    worst_p = 1.0
    for d in range(1, 15):
        rb = result_row(result, d, ExecutionMode.ROLLBACK)
        ol = result_row(result, d, ExecutionMode.OPEN_LOOP)
        rb_succ, ol_succ = round(rb.sr * n), round(ol.sr * n)
        # one-sided test: fail only if open loop significantly beats rollback
        pvalue = stats.fisher_exact([[rb_succ, n - rb_succ],
                                     [ol_succ, n - ol_succ]],
                                    alternative="less").pvalue
        worst_p = min(worst_p, pvalue)
        assert pvalue >= 0.01, f"distance {d}: rollback below open loop (p={pvalue:.4g})"
        assert rb.an_mean >= ol.an_mean, \
            f"distance {d}: AN rollback {rb.an_mean} < open loop {ol.an_mean}"
    overall = result.overall_sr(ExecutionMode.ROLLBACK)
    _report(10, True, f"rollback SR and AN dominate at all 14 distances "
                      f"(min p {worst_p:.3f}, rollback avg SR {overall:.3f}, "
                      f"{time.time()-t0:.0f}s)")


def test_c11_paper_rates_enter_as_parameters_only():
    # The published SR/AN table (e.g. 90.3% average SR, 4.8 actions at
    # distance 1) came from a physics simulator with learned policies and
    # an unspecified action-accounting convention, none of which exist
    # here; criteria 8-10 check distributional properties instead, with
    # the measured atomic success rates entering only as defaults below.
    model = ActuationModel()
    ok = (model.p_rot, model.p_op) == (P_ROT, P_OP)
    _report(11, ok, "published rates are configurable actuator parameters "
                    f"(p_rot={model.p_rot}, p_op={model.p_op}); "
                    "exact SR/AN values intentionally not reproduced")
