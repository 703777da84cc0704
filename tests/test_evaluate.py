import csv
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from pocketcube.actions import compile_moves
from pocketcube.cube import (
    GENERALIZED_MOVES,
    N_STATES,
    SOLVED,
    unrank,
)
from pocketcube import evaluate
from pocketcube.evaluate import (
    CSV_HEADER,
    ExperimentConfig,
    export_csv,
    oracle_planner,
    run_experiment,
    sample_at_distance,
)
from pocketcube.executor import ActuationModel, ExecutionMode, ExecutorConfig
from pocketcube.solver import oracle_descent, oracle_solve
from pocketcube.tables import DistanceTable

from conftest import apply_generalized, bucket, result_row

PERFECT = ActuationModel(p_rot=1.0, p_op=1.0)


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSampling:
    def test_samples_sit_at_exact_distance(self, dist_table):
        rng = np.random.default_rng(80)
        for d in (1, 4, 9, 14):
            for r in sample_at_distance(d, 30, dist_table, rng):
                assert dist_table.distance(unrank(r)) == d

    def test_distance_one_bucket_is_the_six_neighbors(self, dist_table):
        neighbors = {apply_generalized(SOLVED, m).rank
                     for m in GENERALIZED_MOVES}
        assert set(int(r) for r in bucket(dist_table, 1)) == neighbors

    def test_deterministic_under_seed(self, dist_table):
        a = sample_at_distance(7, 20, dist_table, np.random.default_rng(81))
        b = sample_at_distance(7, 20, dist_table, np.random.default_rng(81))
        assert a == b

    def test_rejects_bad_distance(self, dist_table):
        rng = np.random.default_rng(82)
        with pytest.raises(ValueError):
            sample_at_distance(0, 1, dist_table, rng)
        with pytest.raises(ValueError):
            sample_at_distance(15, 1, dist_table, rng)

    def test_bucket_sizes_cover_the_space(self, dist_table):
        assert sum(dist_table.count_at(d) for d in range(1, 15)) + 1 == N_STATES

    def test_draws_are_the_bucket_indexed_by_the_same_stream(self, dist_table):
        # the reference: the sorted ranks at the depth, indexed by the draws
        for d in range(1, 15):
            at_d = bucket(dist_table, d)
            for seed in range(3):
                for n in (1, 100, 200_000):
                    want = at_d[np.random.default_rng(seed).integers(0, at_d.size, size=n)]
                    got = sample_at_distance(d, n, dist_table, np.random.default_rng(seed))
                    assert got == want.tolist()

    def test_sampling_cache_stays_small(self, dist_table):
        # 14 depth buckets of ranks would hold 14.7 MB; the directories ~0.56 MB
        table = DistanceTable(dist_table.dist)
        run_experiment(ExperimentConfig(trials_per_distance=1), table)
        cached = sum(a.nbytes for cache in vars(table).values() if isinstance(cache, dict)
                     for a in cache.values())
        assert 0 < cached < 1_000_000


class TestStreams:
    """Each episode and scramble stream is np.random.default_rng of its key."""

    CHUNK = evaluate._STREAM_CHUNK

    @given(st.integers(min_value=0, max_value=2**80), st.integers(min_value=1, max_value=14),
           st.sampled_from((1, 2, 99)),
           st.sampled_from((1, 2, CHUNK - 1, CHUNK, CHUNK + 1)))
    def test_block_states_are_default_rng_of_the_key(self, master, distance, tag, trials):
        key = (master, distance, tag)
        checked = {0, 1, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1, trials - 1}
        n = 0
        for trial, rng in enumerate(evaluate._streams(key, range(trials))):
            if trial in checked:
                want = np.random.default_rng(key + (trial,))
                assert rng.bit_generator.state == want.bit_generator.state
                assert rng.random() == want.random()
            n += 1
        assert n == trials
        # the scramble stream's key has no trial
        scramble_rng = next(evaluate._streams((master, distance), (99,)))
        want = np.random.default_rng((master, distance, 99))
        assert scramble_rng.bit_generator.state == want.bit_generator.state

    def test_every_state_across_the_chunks(self):
        for key in ((0, 1, 1), (2**32 - 1, 14, 2), (2**64 + 7, 9, 99)):
            got = [rng.bit_generator.state
                   for rng in evaluate._streams(key, range(2 * self.CHUNK + 5))]
            assert got == [np.random.default_rng(key + (t,)).bit_generator.state
                           for t in range(2 * self.CHUNK + 5)]

    def test_rejects_a_negative_int_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng((-1, 2, 99))
        with pytest.raises(ValueError):
            next(evaluate._streams((-1, 2), (99,)))


class TestRunExperiment:
    def test_perfect_actuator_solves_everything(self, dist_table):
        config = ExperimentConfig(distances=(1, 5, 11), trials_per_distance=10,
                                  model=PERFECT, master_seed=7)
        result = run_experiment(config, dist_table)
        for row in result.rows:
            assert row.sr == 1.0
            assert row.trials == 10
        assert result.overall_sr(ExecutionMode.ROLLBACK) == 1.0

    def test_perfect_actuator_an_is_plan_length(self, dist_table):
        config = ExperimentConfig(distances=(4,), trials_per_distance=25,
                                  model=PERFECT, master_seed=8)
        result = run_experiment(config, dist_table)
        scrambles = sample_at_distance(4, 25, dist_table,
                                       np.random.default_rng((8, 4, 99)))
        plan_lengths = [sum(1 + step.twists for step in
                            compile_moves(oracle_solve(unrank(r), dist_table)))
                        for r in scrambles]
        for mode in ExecutionMode:
            row = result_row(result, 4, mode)
            assert row.an_mean == pytest.approx(np.mean(plan_lengths))
            assert row.an_std == pytest.approx(np.std(plan_lengths))

    def test_row_order_distance_then_rollback_first(self, dist_table):
        config = ExperimentConfig(distances=(3, 1), trials_per_distance=2,
                                  model=PERFECT)
        result = run_experiment(config, dist_table)
        keys = [(r.distance, r.mode) for r in result.rows]
        assert keys == [(1, ExecutionMode.ROLLBACK), (1, ExecutionMode.OPEN_LOOP),
                        (3, ExecutionMode.ROLLBACK), (3, ExecutionMode.OPEN_LOOP)]

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ExperimentConfig(distances=(0, 5))
        with pytest.raises(ValueError):
            ExperimentConfig(trials_per_distance=0)

    def test_open_loop_success_declines_with_distance(self, dist_table):
        # negative rank correlation between distance and open-loop SR
        config = ExperimentConfig(trials_per_distance=1000,
                                  modes=(ExecutionMode.OPEN_LOOP,),
                                  master_seed=9)
        result = run_experiment(config, dist_table)
        srs = [result_row(result, d, ExecutionMode.OPEN_LOOP).sr for d in range(1, 15)]
        rho, pvalue = stats.spearmanr(range(1, 15), srs)
        assert rho < 0
        assert pvalue / 2 < 0.05  # one-sided


class TestOraclePlanner:
    def test_plans_are_the_oracle_descent_as_tuples(self, dist_table):
        planner = oracle_planner(dist_table)
        for r in sample_at_distance(9, 20, dist_table, np.random.default_rng(12)):
            plan = planner(r)
            assert plan == compile_moves(oracle_descent(r, dist_table))
            assert planner(r) is plan

    def test_run_experiment_plans_each_rank_once(self, dist_table, monkeypatch):
        calls = Counter()

        def counting(r, table):
            calls[r] += 1
            return oracle_descent(r, table)

        monkeypatch.setattr(evaluate, "oracle_descent", counting)
        config = ExperimentConfig(distances=(2, 7, 12), trials_per_distance=30, master_seed=13)
        run_experiment(config, dist_table)
        scrambles = {r for d in config.distances for r in sample_at_distance(
            d, 30, dist_table, np.random.default_rng((13, d, 99)))}
        assert scrambles <= set(calls)
        assert len(calls) > len(scrambles)  # re-plans from mid-episode ranks
        assert set(calls.values()) == {1}


class TestCsv:
    def test_header_and_shape(self, dist_table, tmp_path):
        config = ExperimentConfig(trials_per_distance=2, model=PERFECT)
        result = run_experiment(config, dist_table)
        path = tmp_path / "out.csv"
        export_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 28  # 14 distances x 2 modes

    def test_roundtrip_reproduces_rows(self, dist_table, tmp_path):
        config = ExperimentConfig(distances=(2, 6), trials_per_distance=5,
                                  master_seed=11)
        result = run_experiment(config, dist_table)
        path = tmp_path / "out.csv"
        export_csv(result, path)
        parsed = read_csv(path)
        assert len(parsed) == len(result.rows)
        for got, row in zip(parsed, result.rows):
            assert int(got["distance"]) == row.distance
            assert got["mode"] == row.mode.value
            assert int(got["trials"]) == row.trials
            assert float(got["sr"]) == pytest.approx(row.sr, abs=5e-5)
            assert float(got["an_mean"]) == pytest.approx(row.an_mean, abs=5e-5)
            assert float(got["an_std"]) == pytest.approx(row.an_std, abs=5e-5)

    def test_floats_have_four_decimals(self, dist_table, tmp_path):
        config = ExperimentConfig(distances=(3,), trials_per_distance=3,
                                  master_seed=12)
        export_csv(run_experiment(config, dist_table), tmp_path / "out.csv")
        row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
        for cell in row[3:]:
            whole, frac = cell.split(".")
            assert len(frac) == 4

    def test_empty_distances_writes_header_only(self, dist_table, tmp_path):
        config = ExperimentConfig(distances=(), trials_per_distance=1)
        export_csv(run_experiment(config, dist_table), tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text().splitlines() == [",".join(CSV_HEADER)]

    def test_same_seed_identical_bytes(self, dist_table, tmp_path):
        config = ExperimentConfig(distances=(1, 2, 3), trials_per_distance=8,
                                  master_seed=13)
        export_csv(run_experiment(config, dist_table), tmp_path / "a.csv")
        export_csv(run_experiment(config, dist_table), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_io_failure_carries_path_context(self, dist_table, tmp_path):
        config = ExperimentConfig(distances=(1,), trials_per_distance=1,
                                  model=PERFECT)
        result = run_experiment(config, dist_table)
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            export_csv(result, missing)
