import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pocketcube.actions import (
    DELTA_X,
    PALM_CENTER,
    TWIST_TARGET,
    Pose,
    PoseGoal,
    Quaternion,
    compile_moves,
    goal_orientation,
    pose_goal_reached,
)
from pocketcube.cube import (
    GENERALIZED_MOVES,
    N_STATES,
    SOLVED,
    Move,
    apply,
    apply_seq,
    canonicalize,
    is_solved,
    random_canonical,
    reduce_move,
    unrank,
)
from pocketcube.evaluate import oracle_planner
from pocketcube.executor import (
    ActuationModel,
    ExecutionMode,
    ExecutorConfig,
    MoveOutcome,
    PhysicalCube,
    attempt_restore,
    attempt_rotate,
    attempt_twist,
    execute_episode,
    execute_move_rollback,
    format_trace_entry,
    up_face,
)
from pocketcube.executor import (
    CHAMFER_TOLERANCE,
    FAILURE_ANGLE_HIGH,
    FAILURE_ANGLE_LOW,
    _ANCHOR_FACES,
    _COMMITTED_MOVE_INDEX,
    _TWIST_ROTATION,
    _goal_reached,
)
from pocketcube.solver import oracle_solve
from pocketcube.tables import move_tables, successor

from conftest import apply_generalized, bucket, inverse

PERFECT = ActuationModel(p_rot=1.0, p_op=1.0)

# one hand-frame orientation per body face up: identity, a half turn about
# x, and quarter turns each way about y and about x
FACE_UP = {up_face(q): q for q in (
    Quaternion.identity(),
    Quaternion.from_axis_angle((1.0, 0.0, 0.0), math.pi),
    *(Quaternion.from_axis_angle(axis, angle)
      for axis in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)) for angle in (math.pi / 2, -math.pi / 2)),
)}


# the eager success pose: the formula a drawn pose must materialize to, bit for bit

def eager_unit_vector(rng):
    while True:
        v = rng.standard_normal(3)
        n = math.sqrt(v.dot(v))
        if n >= 1e-12:
            x, y, z = v.tolist()
            return (x / n, y / n, z / n)


def eager_pose_near(rng, goal, delta_x, delta_q):
    u = eager_unit_vector(rng)
    r = delta_x * rng.random() ** (1.0 / 3.0)
    c = goal.x_target
    position = (c[0] + u[0] * r, c[1] + u[1] * r, c[2] + u[2] * r)
    axis = eager_unit_vector(rng)
    angle = delta_q * rng.random() ** (1.0 / 3.0)
    wobble = Quaternion.from_axis_angle(axis, angle)
    return Pose(position, (wobble * goal.q_target).normalized())


EAGER_TURN = Quaternion.from_axis_angle((0.0, 0.0, 1.0), math.pi / 2)


def bits(pose):
    return struct.pack("<7d", *pose.position, *pose.orientation)


def step(move):
    """The shared compiled Step of one move."""
    return compile_moves([move])[0]


class TestUpFace:
    def test_identity_orientation_points_u_up(self):
        assert up_face(Quaternion.identity()) == "U"

    def test_matches_rotated_normal_reference(self):
        # reference: rotate each face normal by q and take the highest,
        # first in face order on a tie
        normals = ((0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 1, 0))

        def reference(q):
            conj = Quaternion(q.w, -q.x, -q.y, -q.z)
            heights = [(q * Quaternion(0.0, *n) * conj).z for n in normals]
            return "UDRLFB"[heights.index(max(heights))]

        rng = np.random.default_rng(79)
        draws = [Quaternion.random_uniform(rng) for _ in range(2000)]
        for m in GENERALIZED_MOVES:
            for _ in range(200):
                axis = rng.standard_normal(3)
                wobble = Quaternion.from_axis_angle(tuple(axis), float(rng.uniform(0, 0.1)))
                draws.append((wobble * goal_orientation(m)).normalized())
        faces = [up_face(q) for q in draws]
        assert faces == [reference(q) for q in draws]
        assert set(faces) == set("UDRLFB")


class TestCompiledSteps:
    def test_each_step_commits_its_move_on_every_state(self):
        # A certificate, not a sample: a generalized move acts on the perm
        # and twist coordinates independently, so the 5,040 perm codes and
        # the 729 twist codes cover every rank.
        perm, ori = move_tables()
        for s in compile_moves(GENERALIZED_MOVES):
            assert s.face == up_face(s.goal.q_target)
            committed = _COMMITTED_MOVE_INDEX[s.face]
            p, o = np.arange(len(perm)), np.arange(len(ori))
            q = s.goal.q_target
            for _ in range(s.twists):
                p, o = perm[p, committed], ori[o, committed]
                if s.face in _ANCHOR_FACES:  # the B-up steps turn the body frame
                    q = (_TWIST_ROTATION * q).normalized()
                    assert up_face(q) == s.face
            assert np.array_equal(p, perm[:, s.index])
            assert np.array_equal(o, ori[:, s.index])


class TestAttemptRotate:
    def test_always_succeeds_at_p_one(self):
        cube = PhysicalCube.at_rest(0)
        r = step(Move.R)
        rng = np.random.default_rng(50)
        for _ in range(200):
            assert attempt_rotate(cube, r, PERFECT, rng)
            assert pose_goal_reached(cube.pose, r.goal)

    def test_never_succeeds_at_p_zero(self):
        model = ActuationModel(p_rot=0.0)
        cube = PhysicalCube.at_rest(0)
        rng = np.random.default_rng(51)
        assert not any(attempt_rotate(cube, step(Move.U), model, rng) for _ in range(200))

    def test_never_changes_logical_state(self):
        model = ActuationModel(p_rot=0.5)
        rng = np.random.default_rng(52)
        s = random_canonical(rng)
        cube = PhysicalCube.at_rest(s.rank)
        for _ in range(100):
            attempt_rotate(cube, step(Move.F), model, rng)
            assert cube.logical == s.rank

    def test_empirical_rate_matches_calibration(self):
        model = ActuationModel()
        cube = PhysicalCube.at_rest(0)
        u = step(Move.U)
        rng = np.random.default_rng(53)
        n = 10_000
        hits = sum(attempt_rotate(cube, u, model, rng) for _ in range(n))
        sigma = math.sqrt(model.p_rot * (1 - model.p_rot) / n)
        assert abs(hits / n - model.p_rot) <= 3 * sigma


class TestDrawnPose:
    """A successful re-pose is kept as its draws until read; every reader
    must see what the eager formula gives, proof or no proof."""

    @pytest.mark.parametrize("delta_x, delta_q", [
        (DELTA_X, 0.1), (DELTA_X, math.pi / 4 - 1e-9), (DELTA_X, 1.0), (DELTA_X, 3.0),
        (1e-12, 1e-12),
    ])
    def test_materializes_to_the_eager_pose(self, delta_x, delta_q):
        goal_proofs = 0
        for seed in range(200):
            lazy_rng, eager_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            twist_rng = np.random.default_rng((81, seed))
            for i in range(50):
                x_target = PALM_CENTER if i % 2 else (0.25, -1.5, 3.0)
                move_step = step(GENERALIZED_MOVES[i % 6])
                move_step = move_step._replace(goal=PoseGoal(x_target, move_step.goal.q_target))
                goal = move_step.goal
                cube = PhysicalCube.at_rest(0)
                assert attempt_rotate(cube, move_step, PERFECT, lazy_rng, delta_x, delta_q)
                assert eager_rng.random() < PERFECT.p_rot
                pose = eager_pose_near(eager_rng, goal, delta_x, delta_q)

                proven = cube._drawn.proven_reached(goal, delta_x, delta_q)
                assert (_goal_reached(cube, goal, delta_x, delta_q)
                        == pose_goal_reached(pose, goal, delta_x, delta_q))
                assert (cube._drawn is None) == (not proven)  # no proof: the floats were read
                goal_proofs += proven

                # 0-3 committed twists; the F goals put B up and queue anchor turns
                logical = 0
                for _ in range(i % 4):
                    proven = cube._drawn.proven_up_face() if cube._drawn else None
                    face = up_face(pose.orientation)
                    assert proven in (None, face)
                    # below pi/4 by the margin, every twist of a drawn pose is proven
                    assert cube._drawn is None or (proven is None) == (delta_q > math.pi / 4)
                    assert attempt_twist(cube, PERFECT, twist_rng)
                    assert (cube._drawn is None) == (proven is None)
                    logical = successor(logical, GENERALIZED_MOVES.index(reduce_move(Move(face + "'"))))
                    if face in "DLB":
                        pose = Pose(pose.position, (EAGER_TURN * pose.orientation).normalized())
                assert cube.logical == logical
                assert bits(cube.pose) == bits(pose)
        # a tiny delta_q leaves no room for the margin: always the exact check
        assert goal_proofs == 0 if delta_q == 1e-12 else goal_proofs >= 0.99 * 200 * 50

    @pytest.mark.parametrize("uniforms", [(0.0, 1.0 - 2.0 ** -53, 0.5),
                                          (0.0, 0.5, 1.0 - 2.0 ** -53)])
    def test_draw_at_the_tolerance_takes_the_exact_check(self, uniforms):
        class StubRng:
            """Fixed uniform draws: the success gate, the radius, the angle."""

            def __init__(self, seed):
                self.uniforms = iter(uniforms)
                self.normals = np.random.default_rng(seed)

            def random(self):
                return next(self.uniforms)

            def standard_normal(self, n):
                return self.normals.standard_normal(n)

        for seed in range(100):
            for m in GENERALIZED_MOVES:
                goal = step(m).goal
                cube = PhysicalCube.at_rest(0)
                assert attempt_rotate(cube, step(m), ActuationModel(), StubRng(seed))
                eager_rng = StubRng(seed)
                assert eager_rng.random() < ActuationModel().p_rot
                pose = eager_pose_near(eager_rng, goal, DELTA_X, 0.1)
                assert not cube._drawn.proven_reached(goal, DELTA_X, 0.1)
                reached = _goal_reached(cube, goal, DELTA_X, 0.1)
                assert cube._drawn is None  # the exact path read the floats
                assert reached == pose_goal_reached(pose, goal, DELTA_X, 0.1)

    @pytest.mark.parametrize("normal", [
        (1e-13, 1e-13, 1e-13),     # norm below 1e-12: redrawn by both
        (5e-13, -5e-13, 5e-13),    # no component proves it, and the norm redraws
        (1.5e-12, 1.5e-12, 0.0),   # no component proves it, but the norm keeps it
        (2e-12, 0.0, 0.0),         # the largest component exactly at the bound
        (-2e-12, 1e-13, -1e-13),
    ])
    @pytest.mark.parametrize("slot", ["direction", "axis"])
    def test_tiny_normals_redraw_as_the_eager_draw(self, normal, slot):
        class StubRng:
            """Seeded draws, but one standard_normal draw, the direction's
            or the axis's first, replaced by `normal`."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)
                self.normals = 0

            def random(self):
                return self.rng.random()

            def standard_normal(self, n):
                v = self.rng.standard_normal(n)
                self.normals += 1
                return np.array(normal) if self.normals == (1 if slot == "direction" else 2) else v

        r = step(Move.R)
        for seed in range(20):
            lazy_rng, eager_rng = StubRng(seed), StubRng(seed)
            cube = PhysicalCube.at_rest(0)
            assert attempt_rotate(cube, r, PERFECT, lazy_rng)
            assert eager_rng.random() < PERFECT.p_rot
            pose = eager_pose_near(eager_rng, r.goal, DELTA_X, 0.1)
            assert bits(cube.pose) == bits(pose)
            assert lazy_rng.normals == eager_rng.normals
            assert np.array_equal(lazy_rng.standard_normal(3), eager_rng.standard_normal(3))
            assert lazy_rng.random() == eager_rng.random()


class TestAttemptTwist:
    def test_perfect_twist_advances_each_move_class(self):
        rng = np.random.default_rng(54)
        for m in GENERALIZED_MOVES:
            prime = m if m.is_prime else inverse(m)
            cube = PhysicalCube.at_rest(0)
            cube.pose = cube.pose.__class__((0.0, 0.0, 0.0), goal_orientation(m))
            assert attempt_twist(cube, PERFECT, rng)
            assert cube.logical == apply_generalized(SOLVED, prime).rank
            assert cube.layer_misalignment == 0.0

    @pytest.mark.parametrize("face", "UDRLFB")
    @given(r=st.integers(0, N_STATES - 1))
    def test_perfect_twist_commits_prime_of_up_face(self, face, r):
        # the up face's prime move on the raw cube, re-canonicalized; the
        # pose turns with the layer only when it holds the anchor (D, L, B)
        assert set(FACE_UP) == set("UDRLFB")
        cube = PhysicalCube.at_rest(r)
        cube.pose = Pose(PALM_CENTER, FACE_UP[face])
        assert attempt_twist(cube, PERFECT, np.random.default_rng(0))
        assert cube.logical == canonicalize(apply(unrank(r), Move(face + "'"))).rank
        assert (cube.pose.orientation != FACE_UP[face]) == (face in "DLB")

    def test_jammed_layer_fails_with_no_state_change(self):
        cube = PhysicalCube.at_rest(0)
        cube.layer_misalignment = math.radians(10)
        rng = np.random.default_rng(55)
        assert not attempt_twist(cube, PERFECT, rng)
        assert cube.logical == 0
        assert cube.layer_misalignment == pytest.approx(math.radians(10))

    def test_within_chamfer_still_twists(self):
        cube = PhysicalCube.at_rest(0)
        cube.layer_misalignment = math.radians(4)
        assert attempt_twist(cube, PERFECT, np.random.default_rng(56))
        assert cube.logical != 0

    def test_failure_leaves_residual_or_snaps(self):
        model = ActuationModel(p_op=0.0)
        rng = np.random.default_rng(57)
        chamfer = math.radians(5)
        committed = aligned = residual = 0
        for _ in range(2000):
            cube = PhysicalCube.at_rest(0)
            assert not attempt_twist(cube, model, rng)
            if cube.logical != 0:
                committed += 1
                assert cube.layer_misalignment == 0.0
            elif cube.layer_misalignment == 0.0:
                aligned += 1
            else:
                residual += 1
                assert chamfer < -cube.layer_misalignment < math.pi / 2 - chamfer
        # snap windows are 5/90 each side of a uniform residual
        assert 0.02 < committed / 2000 < 0.10
        assert 0.02 < aligned / 2000 < 0.10
        assert residual > 1500

    def test_residual_is_generator_uniform(self):
        # attempt_twist computes uniform's formula on random(); the residual
        # it leaves must be the uniform draw, bit for bit
        model = ActuationModel(p_op=0.0)
        cube = PhysicalCube.at_rest(0)
        for seed in range(200):
            rng, eager_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(1000):
                logical = cube.logical
                assert not attempt_twist(cube, model, rng)
                assert eager_rng.random() >= model.p_op
                residual = eager_rng.uniform(FAILURE_ANGLE_LOW, FAILURE_ANGLE_HIGH)
                if abs(residual - TWIST_TARGET) <= CHAMFER_TOLERANCE:
                    assert cube.logical != logical and cube.layer_misalignment == 0.0
                else:
                    assert cube.logical == logical
                    assert cube.layer_misalignment == (
                        0.0 if abs(residual) <= CHAMFER_TOLERANCE else residual)
                cube.layer_misalignment = 0.0
            assert rng.random() == eager_rng.random()

    def test_empirical_rate_matches_calibration(self):
        model = ActuationModel()
        rng = np.random.default_rng(58)
        n = 10_000
        hits = 0
        cube = PhysicalCube.at_rest(0)
        for _ in range(n):
            cube.layer_misalignment = 0.0
            hits += attempt_twist(cube, model, rng)
        sigma = math.sqrt(model.p_op * (1 - model.p_op) / n)
        assert abs(hits / n - model.p_op) <= 3 * sigma


class TestRestore:
    def test_success_snaps_to_nearest_alignment(self):
        rng = np.random.default_rng(59)
        cube = PhysicalCube.at_rest(0)
        cube.layer_misalignment = math.radians(-20)
        assert attempt_restore(cube, ActuationModel(p_restore=1.0), rng)
        assert cube.layer_misalignment == 0.0
        assert cube.logical == 0  # nearest was 0: no commit

        cube.layer_misalignment = math.radians(-70)
        assert attempt_restore(cube, ActuationModel(p_restore=1.0), rng)
        assert cube.layer_misalignment == 0.0
        assert cube.logical != 0  # snapped through: commits

    def test_failure_changes_nothing(self):
        rng = np.random.default_rng(60)
        cube = PhysicalCube.at_rest(0)
        cube.layer_misalignment = math.radians(-20)
        assert not attempt_restore(cube, ActuationModel(p_restore=0.0), rng)
        assert cube.layer_misalignment == pytest.approx(math.radians(-20))


class TestMoveRollback:
    def test_perfect_actuator_completes_with_minimal_actions(self, dist_table):
        cfg = ExecutorConfig()
        for m in GENERALIZED_MOVES:
            cube = PhysicalCube.at_rest(0)
            rng = np.random.default_rng(61)
            outcome = execute_move_rollback(cube, step(m), PERFECT, cfg, rng)
            assert outcome is MoveOutcome.COMPLETED
            assert cube.logical == apply_generalized(SOLVED, m).rank

    def test_rotate_dead_never_completes(self):
        model = ActuationModel(p_rot=0.0)
        cfg = ExecutorConfig(r1_max=5)
        for seed in range(20):
            cube = PhysicalCube.at_rest(0)
            rng = np.random.default_rng((62, seed))
            outcome = execute_move_rollback(cube, step(Move.U_PRIME), model, cfg, rng)
            assert outcome in (MoveOutcome.NEEDS_REPLAN, MoveOutcome.BUDGET_EXHAUSTED)
            assert cube.logical == 0

    def test_budget_exhaustion_mid_move(self):
        model = ActuationModel(p_rot=0.0)
        cfg = ExecutorConfig(r1_max=10, action_budget=3)
        cube = PhysicalCube.at_rest(0)
        outcome = execute_move_rollback(cube, step(Move.U), model, cfg,
                                        np.random.default_rng(63))
        assert outcome is MoveOutcome.BUDGET_EXHAUSTED


class TestEpisode:
    def test_solved_scramble_succeeds_without_actions(self, dist_table):
        for mode in ExecutionMode:
            rep = execute_episode(0, mode, oracle_planner(dist_table),
                                  PERFECT, ExecutorConfig(), np.random.default_rng(64))
            assert rep.success
            assert rep.atomic_actions == 0
            assert rep.moves_attempted == 0

    def test_perfect_actuator_reproduces_plan_exactly(self, dist_table):
        rng = np.random.default_rng(65)
        planner = oracle_planner(dist_table)
        for _ in range(100):
            s = random_canonical(rng)
            solution = oracle_solve(s, dist_table)
            for mode in ExecutionMode:
                rep = execute_episode(s.rank, mode, planner, PERFECT, ExecutorConfig(),
                                      np.random.default_rng(66))
                assert rep.success
                assert rep.atomic_actions == sum(
                    1 + s.twists for s in compile_moves(solution))
                assert rep.moves_attempted == len(solution)
                assert rep.replans == 0

    def test_compiled_plan_equals_apply_seq_for_any_sequence(self, dist_table):
        # run arbitrary (non-solution) sequences open loop with a perfect
        # actuator and compare against the pure cube algebra
        rng = np.random.default_rng(67)
        for _ in range(200):
            seq = [GENERALIZED_MOVES[i] for i in rng.integers(0, 6, size=8)]
            s = random_canonical(rng)
            plan = compile_moves(seq)
            report = execute_episode(s.rank, ExecutionMode.OPEN_LOOP, lambda _: plan,
                                     PERFECT, ExecutorConfig(), np.random.default_rng(68),
                                     trace=True)
            expected = canonicalize(apply_seq(s, seq))
            final_rank = report.trace[-1].rank if report.trace else s.rank
            assert final_rank == expected.rank

    def test_logical_state_only_changes_on_twists_and_restores(self, dist_table):
        model = ActuationModel(p_rot=0.8, p_op=0.7, p_restore=0.8)
        rng = np.random.default_rng(69)
        planner = oracle_planner(dist_table)
        for seed in range(30):
            s = random_canonical(rng)
            rep = execute_episode(s.rank, ExecutionMode.ROLLBACK, planner, model,
                                  ExecutorConfig(), np.random.default_rng((70, seed)),
                                  trace=True)
            prev = s.rank
            for e in rep.trace:
                if e.kind in ("rotate", "randomize"):
                    assert e.rank == prev
                prev = e.rank

    def test_reported_success_means_solved(self, dist_table):
        model = ActuationModel(p_rot=0.7, p_op=0.6, p_restore=0.7)
        cfg = ExecutorConfig(action_budget=60)
        planner = oracle_planner(dist_table)
        rng = np.random.default_rng(71)
        seen_failure = False
        for seed in range(60):
            s = random_canonical(rng)
            for mode in ExecutionMode:
                rep = execute_episode(s.rank, mode, planner, model, cfg,
                                      np.random.default_rng((72, seed)), trace=True)
                final = unrank(rep.trace[-1].rank) if rep.trace else s
                assert rep.success == is_solved(final)
                seen_failure |= not rep.success
        assert seen_failure  # the stress settings must actually exercise failure

    def test_budget_bounds_actions(self, dist_table):
        model = ActuationModel(p_rot=0.1, p_op=0.1, p_restore=0.1)
        cfg = ExecutorConfig(action_budget=25)
        rep = execute_episode(2_000_000, ExecutionMode.ROLLBACK,
                              oracle_planner(dist_table), model, cfg,
                              np.random.default_rng(73))
        assert rep.atomic_actions <= 25
        assert not rep.success

    def test_same_seed_same_trace(self, dist_table):
        model = ActuationModel()
        planner = oracle_planner(dist_table)
        runs = []
        for _ in range(2):
            rep = execute_episode(3_000_000, ExecutionMode.ROLLBACK, planner, model,
                                  ExecutorConfig(), np.random.default_rng(74), trace=True)
            runs.append([format_trace_entry(e) for e in rep.trace])
        assert runs[0] == runs[1]

    def test_rollback_dominates_open_loop(self, dist_table):
        model = ActuationModel()
        planner = oracle_planner(dist_table)
        for d in (3, 8):
            wins = {mode: 0 for mode in ExecutionMode}
            at_d = bucket(dist_table, d)
            pick = np.random.default_rng((75, d)).integers(0, at_d.size, size=150)
            for t, bi in enumerate(pick):
                for mi, mode in enumerate(ExecutionMode):
                    rep = execute_episode(int(at_d[bi]), mode, planner, model, ExecutorConfig(),
                                          np.random.default_rng((76, d, mi, t)))
                    wins[mode] += rep.success
            assert wins[ExecutionMode.ROLLBACK] >= wins[ExecutionMode.OPEN_LOOP]

    def test_open_loop_runs_whole_plan_with_no_retries(self, dist_table):
        model = ActuationModel()
        planner = oracle_planner(dist_table)
        rng = np.random.default_rng(77)
        for seed in range(50):
            s = random_canonical(rng)
            rep = execute_episode(s.rank, ExecutionMode.OPEN_LOOP, planner, model,
                                  ExecutorConfig(), np.random.default_rng((78, seed)),
                                  trace=True)
            plan = compile_moves(oracle_solve(s, dist_table))
            assert rep.atomic_actions == sum(1 + step.twists for step in plan)
            assert rep.replans == 0
            assert {e.kind for e in rep.trace} <= {"rotate", "twist"}

    @given(r=st.integers(0, N_STATES - 1), mode=st.sampled_from(ExecutionMode),
           seed=st.integers(0, 2**32 - 1))
    def test_trace_changes_no_outcome(self, dist_table, r, mode, seed):
        # the stress settings exercise randomize, restore, replans and the budget
        model = ActuationModel(p_rot=0.7, p_op=0.6, p_restore=0.7)
        cfg = ExecutorConfig(action_budget=60)
        planner = oracle_planner(dist_table)
        plain, traced = (execute_episode(r, mode, planner, model, cfg,
                                         np.random.default_rng(seed), trace=trace)
                         for trace in (False, True))
        assert plain.trace == []
        assert ((plain.success, plain.atomic_actions, plain.moves_attempted,
                 plain.replans, plain.final_rank)
                == (traced.success, traced.atomic_actions, traced.moves_attempted,
                    traced.replans, traced.final_rank))
        assert len(traced.trace) == traced.atomic_actions
        assert traced.final_rank == (traced.trace[-1].rank if traced.trace else r)
        assert plain.success == (plain.final_rank == 0)

    def test_move_counts_once_an_action_ran(self):
        # the first prime move uses the whole budget of 2; the second never starts
        moves = [Move.U_PRIME, Move.R_PRIME]
        s = canonicalize(apply_seq(SOLVED, [inverse(m) for m in reversed(moves)]))
        plan = compile_moves(moves)
        for mode in ExecutionMode:
            rep = execute_episode(s.rank, mode, lambda _: plan, PERFECT,
                                  ExecutorConfig(action_budget=2), np.random.default_rng(80))
            assert rep.atomic_actions == 2
            assert rep.moves_attempted == 1

    def test_model_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ActuationModel(p_rot=1.5)

    @pytest.mark.parametrize("field, value", [
        ("r1_max", 0), ("r2_max", -1), ("action_budget", 0),
        ("delta_x", math.nan), ("delta_x", 0.0), ("delta_q", -0.1),
        ("delta_q", math.inf),
    ])
    def test_config_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExecutorConfig(**{field: value})
