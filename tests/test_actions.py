import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pocketcube.actions import (
    DELTA_Q,
    DELTA_X,
    PALM_CENTER,
    Pose,
    PoseGoal,
    Quaternion,
    Step,
    compile_moves,
    goal_orientation,
    orientation_distance,
    pose_goal_reached,
    up_face,
)
from pocketcube.cube import GENERALIZED_MOVES, CubeError, Move


def atomic_count(plan):
    return sum(1 + step.twists for step in plan)


def norm(q):
    return math.sqrt(q.w ** 2 + q.x ** 2 + q.y ** 2 + q.z ** 2)


class TestGoalOrientation:
    def test_u_class_is_identity(self):
        for m in (Move.U, Move.U_PRIME):
            q = goal_orientation(m)
            assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_r_class_row(self):
        q = goal_orientation(Move.R)
        assert q.w == pytest.approx(0.7071068, abs=1e-6)
        assert q.x == 0.0
        assert q.y == pytest.approx(-0.7071068, abs=1e-6)
        assert q.z == 0.0

    def test_f_class_row(self):
        q = goal_orientation(Move.F_PRIME)
        assert q.w == pytest.approx(0.7071068, abs=1e-6)
        assert q.x == pytest.approx(0.7071068, abs=1e-6)
        assert (q.y, q.z) == (0.0, 0.0)

    def test_rows_are_unit(self):
        for m in GENERALIZED_MOVES:
            assert norm(goal_orientation(m)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_excluded_moves(self):
        with pytest.raises(CubeError):
            goal_orientation(Move.D)


class TestQuaternion:
    def test_product_is_a_quaternion_not_a_repeated_tuple(self):
        a = Quaternion.from_axis_angle((0, 0, 1), 0.4)
        b = Quaternion.from_axis_angle((1, 0, 0), 1.1)
        ab = a * b
        assert type(ab) is Quaternion
        assert len(ab) == 4
        assert ab == Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y + a.y * b.w + a.z * b.x - a.x * b.z,
            a.w * b.z + a.z * b.w + a.x * b.y - a.y * b.x,
        )
        assert Quaternion.identity() * a == a


components = st.floats(-2.0, 2.0, allow_nan=False)
quaternions = st.builds(Quaternion, components, components, components, components)


class TestPrimitivesBitForBit:
    """The hot-path forms equal the textbook formulas exactly, not approximately."""

    @given(quaternions, quaternions)
    def test_product(self, a, b):
        assert a * b == (
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y + a.y * b.w + a.z * b.x - a.x * b.z,
            a.w * b.z + a.z * b.w + a.x * b.y - a.y * b.x,
        )

    @given(quaternions)
    def test_normalized(self, q):
        n = norm(q)
        if n > 0.0:
            assert q.normalized() == (q.w / n, q.x / n, q.y / n, q.z / n)

    @given(quaternions, quaternions)
    def test_orientation_distance(self, q, target):
        conj = Quaternion(q.w, -q.x, -q.y, -q.z)
        real = abs((target * conj).w)
        assert orientation_distance(q, target) == 2.0 * math.acos(min(1.0, real))

    def test_dot_equals_matmul(self):
        # the executor's unit vectors take v.dot(v); the pinned CSV and
        # trace were made with v @ v, so the two must agree bit for bit
        rng = np.random.default_rng(45)
        for _ in range(10_000):
            v = rng.standard_normal(3)
            assert v.dot(v) == v @ v, "v.dot(v) and v @ v differ on this numpy build"


class TestOrientationDistance:
    def test_identical_is_zero(self):
        q = Quaternion.from_axis_angle((0, 0, 1), 0.4)
        assert orientation_distance(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_double_cover(self):
        q = Quaternion.from_axis_angle((1, 2, 2), 1.1).normalized()
        neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
        assert orientation_distance(q, neg) == pytest.approx(0.0, abs=1e-9)

    def test_quarter_turn_about_any_axis(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            axis = tuple(rng.standard_normal(3))
            q = Quaternion.from_axis_angle(axis, math.pi / 2)
            d = orientation_distance(Quaternion.identity(), q)
            assert d == pytest.approx(math.pi / 2, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = Quaternion.random_uniform(rng)
            b = Quaternion.random_uniform(rng)
            assert orientation_distance(a, b) == pytest.approx(
                orientation_distance(b, a), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a = Quaternion.random_uniform(rng)
            b = Quaternion.random_uniform(rng)
            c = Quaternion.random_uniform(rng)
            ab = orientation_distance(a, b)
            bc = orientation_distance(b, c)
            ac = orientation_distance(a, c)
            assert ac <= ab + bc + 1e-9


class TestGoalPredicates:
    def test_exact_pose_reached(self):
        goal = PoseGoal((0.0, 0.0, 0.0), goal_orientation(Move.R))
        pose = Pose((0.0, 0.0, 0.0), goal_orientation(Move.R))
        assert pose_goal_reached(pose, goal)

    def test_errors_just_inside_thresholds(self):
        # 0.009 m position error and 0.05 rad orientation error pass at
        # the default thresholds 0.01 m / 0.1 rad
        goal = PoseGoal((0.0, 0.0, 0.0), Quaternion.identity())
        pose = Pose((0.009, 0.0, 0.0),
                    Quaternion.from_axis_angle((0, 0, 1), 0.05))
        assert pose_goal_reached(pose, goal, DELTA_X, DELTA_Q)

    def test_position_just_outside(self):
        goal = PoseGoal((0.0, 0.0, 0.0), Quaternion.identity())
        pose = Pose((0.011, 0.0, 0.0), Quaternion.identity())
        assert not pose_goal_reached(pose, goal, DELTA_X, DELTA_Q)

    def test_threshold_is_strict(self):
        goal = PoseGoal((0.0, 0.0, 0.0), Quaternion.identity())
        pose = Pose((DELTA_X, 0.0, 0.0), Quaternion.identity())
        assert not pose_goal_reached(pose, goal, DELTA_X, DELTA_Q)


class TestCompile:
    def test_prime_move_is_rotate_plus_one_twist(self):
        plan = compile_moves([Move.U_PRIME])
        assert atomic_count(plan) == 2
        step, = plan
        assert step.index == GENERALIZED_MOVES.index(Move.U_PRIME)
        assert step.goal == PoseGoal(PALM_CENTER, goal_orientation(Move.U_PRIME))
        assert step.face == "U"
        assert step.twists == 1

    def test_plain_move_is_rotate_plus_three_twists(self):
        plan = compile_moves([Move.R])
        assert atomic_count(plan) == 4
        step, = plan
        assert (step.index, step.face, step.twists) == (GENERALIZED_MOVES.index(Move.R), "R", 3)

    def test_repeated_move_steps_equal_a_fresh_build(self):
        # one shared Step per move, handed out again for every repeat and plan
        for i, m in enumerate(GENERALIZED_MOVES):
            goal = PoseGoal(PALM_CENTER, goal_orientation(m))
            fresh = Step(i, goal, up_face(goal.q_target), 1 if m.is_prime else 3)
            a, b = compile_moves([m, m])
            assert a == fresh
            assert a is b is compile_moves([m])[0]
            assert a.face == {"U": "U", "R": "R", "F": "B"}[m.face]

    def test_move_outside_the_generalized_set_is_rejected(self):
        with pytest.raises(CubeError, match="^D is not in the generalized move set$"):
            compile_moves([Move.U, Move.D])

    def test_empty_plan(self):
        assert atomic_count(compile_moves([])) == 0
        assert len(compile_moves([])) == 0

    def test_action_count_formula(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            seq = [GENERALIZED_MOVES[i] for i in rng.integers(0, 6, size=10)]
            plan = compile_moves(seq)
            assert atomic_count(plan) == sum(2 if m.is_prime else 4 for m in seq)
            assert [GENERALIZED_MOVES[step.index] for step in plan] == seq
