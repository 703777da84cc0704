"""Stochastic execution of compiled plans: parameterized actuators and one
action loop that runs either the closed-loop rollback workflow or the
open-loop baseline.

The two actuators are Bernoulli gates with configured success rates (the
defaults are the measured rates of the trained hand policies, entering
here purely as parameters).  On success the actuator lands inside its
goal tolerance; on failure it lands in an explicitly invented failure
distribution, fixed by the FAILURE_* constants -- the underlying physics
is out of scope, so failure shapes are modeling choices, not measurements.

Logical bookkeeping: the cube's logical state is its canonical rank and
only changes when a top-layer twist commits.  A committed twist performs
the prime move of whichever body face is up (nearest face axis to the
hand up axis, ties broken in face order U D R L F B), folded through
reduce_move and applied to the rank by tables.successor; when that layer
holds the anchor piece the body frame, and so the tracked pose, turns too.

The planner hands over each move as one of the six `actions.Step`s built
at import: the move index, a re-pose goal, the face that goal puts up and
1 or 3 twists.  The two modes differ only in whether the operator checks
its own results.  Rollback (checked) per move:
  Stage 1  attempt the re-pose; if the pose check fails, randomize the
           pose and retry, at most r1_max rotate attempts.
  Stage 2  attempt the twists; after each, if the layers are
           misaligned, attempt restore randomizations (Bernoulli
           p_restore, snapping to the nearest alignment -- which can
           itself commit the move) up to r2_max times.
  Finally  compare the logical state against the expected one; a
           mismatch asks the episode driver to re-plan.
Open loop (unchecked) fires one rotate attempt and the twists, with no
randomize, no restore and no completion check, and plans once.  Its first
jam fixes the rank: every later twist fails before drawing, and a rotate
never changes the rank.  Untraced, it stops there and counts each later
step's 1 + twists actions, up to the budget; no output reads those draws.

Every attempt of rotate, twist, randomize and restore counts one atomic
action toward the episode budget and the reported action number.  A move
counts as attempted once at least one of its actions ran.  Counting is
inline and needs no trace; only `trace=True` (`simulate --trace`) builds
a TraceEntry, with its pose errors, per action.  The draws are the same
either way, up to an open-loop episode's first jam.

A successful re-pose makes its draws at once, keeping its two normal
3-vectors raw, but computes its floats (the unit vectors, position,
orientation, the anchor twists' turns) only when something reads the
pose: the trace, or a check outside its proof's bounds.  A normal draw
too short to normalize is still redrawn at once (see _normal_draw).  The
goal check and the up face at each twist are proven from the draws while
delta_q is small enough (see _DrawnPose), and the computed pose has the
same bits as an eager one.  Failure and randomized poses are computed at
once.

The rng is any object with numpy Generator's `random()` and
`standard_normal(n)`: a Generator itself (`simulate`, direct calls) or
the stream wrapper `eval` passes (evaluate._Draws), whose draws have the
same bits.  Every episode draws through those two methods alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .actions import (
    DELTA_Q,
    DELTA_X,
    PALM_CENTER,
    TWIST_TARGET,
    Pose,
    Quaternion,
    Step,
    Vector3,
    orientation_distance,
    pose_goal_reached,
    up_face,
)
from .cube import FACES, GENERALIZED_MOVES, Move, reduce_move
from .tables import successor

CHAMFER_TOLERANCE = math.radians(5.0)  # layer slack that still permits a twist

HAND_UP: Vector3 = (0.0, 0.0, 1.0)

_TWIST_ROTATION = Quaternion.from_axis_angle(HAND_UP, math.pi / 2)

# every episode starts here; a Pose is immutable, so all share this one
_REST_POSE = Pose(PALM_CENTER, Quaternion.identity())

# the invented failure shapes (modeling choices, not measurements)
FAILURE_POS_RADIUS = 0.05  # m, uniform ball around the palm point
FAILURE_ANGLE_LOW = -math.pi / 2  # residual twist angle range, rad
FAILURE_ANGLE_HIGH = 0.0


class ExecutionMode(Enum):
    ROLLBACK = "rollback"
    OPEN_LOOP = "open_loop"


class MoveOutcome(Enum):
    COMPLETED = "completed"
    NEEDS_REPLAN = "needs_replan"
    BUDGET_EXHAUSTED = "budget_exhausted"
    UNCHECKED = "unchecked"  # open loop: every action ran, result not checked


# module names for the outcomes: an Enum member read costs ~70 ns (CPython 3.11)
_COMPLETED, _NEEDS_REPLAN = MoveOutcome.COMPLETED, MoveOutcome.NEEDS_REPLAN
_BUDGET_EXHAUSTED, _UNCHECKED = MoveOutcome.BUDGET_EXHAUSTED, MoveOutcome.UNCHECKED


@dataclass
class ActuationModel:
    """Actuator success rates.

    p_rot and p_op default to the measured success rates of the two
    trained hand skills (95.2% re-pose, 92.3% twist).  What a *failed*
    attempt looks like is invented and fixed by the FAILURE_* constants.
    """

    p_rot: float = 0.952
    p_op: float = 0.923
    p_restore: float = 0.95

    def __post_init__(self):
        for name in ("p_rot", "p_op", "p_restore"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


@dataclass
class ExecutorConfig:
    delta_x: float = DELTA_X
    delta_q: float = DELTA_Q
    r1_max: int = 10
    r2_max: int = 10
    action_budget: int = 200

    def __post_init__(self):
        for name in ("delta_x", "delta_q"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        # r1_max 0 would fail every move before acting and re-plan forever
        for name, low in (("r1_max", 1), ("r2_max", 0), ("action_budget", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


class PhysicalCube:
    """Logical state (a canonical rank) plus tracked pose and layer misalignment.

    After a successful re-pose the pose is held as its `_DrawnPose` until
    something reads `pose`; the read computes the floats once and keeps them.
    """

    __slots__ = ("logical", "layer_misalignment", "_pose", "_drawn")

    def __init__(self, logical: int, pose: Pose, layer_misalignment: float = 0.0):
        self.logical = logical
        self.pose = pose
        self.layer_misalignment = layer_misalignment  # rad; 0 when the halves are aligned

    @classmethod
    def at_rest(cls, logical: int) -> "PhysicalCube":
        return cls(logical, _REST_POSE)

    @property
    def pose(self) -> Pose:
        if self._drawn is not None:
            self._pose, self._drawn = self._drawn.materialize(), None
        return self._pose

    @pose.setter
    def pose(self, pose: Pose) -> None:
        self._pose, self._drawn = pose, None


@dataclass(frozen=True)
class TraceEntry:
    index: int
    kind: str            # rotate | twist | randomize | restore
    success: bool
    pos_err: float | None
    ang_err: float | None
    rank: int            # logical rank after the action


def format_trace_entry(e: TraceEntry) -> str:
    pos = "-" if e.pos_err is None else f"{e.pos_err:.4f}"
    ang = "-" if e.ang_err is None else f"{e.ang_err:.4f}"
    ok = "ok" if e.success else "fail"
    return f"{e.index:4d} {e.kind:<9s} {ok:<4s} pos_err={pos} ang_err={ang} rank={e.rank}"


@dataclass
class EpisodeReport:
    success: bool
    atomic_actions: int
    moves_attempted: int
    replans: int
    final_rank: int
    trace: list[TraceEntry]  # empty unless the episode was asked for a trace


@dataclass(slots=True)
class _ActionLog:
    budget: int
    trace: bool = False
    count: int = 0
    entries: list[TraceEntry] = field(default_factory=list)

    def record(self, kind: str, success: bool, cube: PhysicalCube,
               goal: Quaternion | None = None) -> None:
        """Trace the action just counted; the loop calls it only when tracing."""
        pos_err, ang_err = (_pose_errors(cube, goal) if goal
                            else (None, abs(cube.layer_misalignment)))
        self.entries.append(TraceEntry(self.count, kind, success,
                                       pos_err, ang_err, cube.logical))


# ---------------------------------------------------------------------------
# pose and commit mechanics
# ---------------------------------------------------------------------------

# up face -> (index of the move a -90 degree top twist performs, the face's
# prime; whether its layer holds the DLB anchor piece and turns the body frame)
_COMMITS = {face: (GENERALIZED_MOVES.index(reduce_move(Move(face + "'"))), face in "DLB")
            for face in FACES}

# Bounds of the two proofs on a drawn pose (see _DrawnPose).  Rounding in
# the materialized floats is a few hundred ulp of 1 at most, far inside
# each margin; the up-face proof also stops at _PROVEN_TURNS queued turns,
# each of which adds a few ulp.
_PROVEN_UP_DELTA_Q = math.pi / 4 - 2.0 ** -32
_PROVEN_TURNS = 1024


class _DrawnPose:
    """A successful re-pose held as its step's goal and its four draws, plus
    the anchor-twist quarter turns queued since.

    The draws are the position direction and the wobble axis, both raw
    normal 3-vectors, the radius draw and the angle draw.  `materialize`
    computes the pose from them with the float operations of an eager draw,
    in the same order, so it gets the same bits: both vectors normalized,
    both radii volume-uniform inside the tolerance region (cube-root
    draws), then each queued turn.  Two readers skip that work where a
    proof gives their answer; outside its bounds they read the
    materialized pose.

    `up` is up_face of the materialized orientation where proven, else
    None.  The wobble angle t is at most delta_q < pi/4.  It tilts the goal
    face's normal at most t from the hand's up axis, so that face's height
    is at least cos t; every other face's normal is at right angles to it
    or opposite, so its height is at most sin t < cos t.  A quarter turn
    about the hand's up axis changes no height; the proof stops at
    _PROVEN_TURNS queued turns.
    """

    __slots__ = ("goal", "up", "direction", "radius_draw", "axis", "angle_draw",
                 "delta_x", "delta_q", "turns")

    def __init__(self, step: Step, direction: Sequence[float], radius_draw: float,
                 axis: Sequence[float], angle_draw: float, delta_x: float, delta_q: float):
        self.goal = step.goal
        self.up = step.face if delta_q <= _PROVEN_UP_DELTA_Q else None
        self.direction, self.radius_draw = direction, radius_draw
        self.axis, self.angle_draw = axis, angle_draw
        self.delta_x, self.delta_q = delta_x, delta_q
        self.turns = 0

    def materialize(self) -> Pose:
        c, u = PALM_CENTER, _unit(self.direction)
        r = self.delta_x * self.radius_draw ** (1.0 / 3.0)
        position = (c[0] + u[0] * r, c[1] + u[1] * r, c[2] + u[2] * r)
        wobble = Quaternion.from_axis_angle(_unit(self.axis),
                                            self.delta_q * self.angle_draw ** (1.0 / 3.0))
        orientation = (wobble * self.goal).normalized()
        for _ in range(self.turns):
            orientation = (_TWIST_ROTATION * orientation).normalized()
        return Pose(position, orientation)

    def proven_reached(self) -> bool:
        """True where pose_goal_reached(self.materialize(), self.goal,
        self.delta_x, self.delta_q) provably holds; False means only that
        no proof applies.

        Position: with r the drawn radius, the computed distance from
        PALM_CENTER is at most r (1 + 2^-41), allowing up to 2^10 ulp of
        error in math.dist (CPython's is within 1 ulp); 2^-1000 covers
        underflow.
        Orientation: the goal is a unit table quaternion, so the real part
        that orientation_distance reads is cos(a/2) within k = 2^-44.  For
        0 <= a <= b <= pi, cos(a/2) - cos(b/2) >= (b^2 - a^2) / (2 pi^2),
        so 2 acos of it stays below delta_q once a^2 + 2 pi^2 k (< 2^-35)
        is below delta_q^2 with a 2^-40 relative margin.  A tiny delta_q
        leaves no room for that term, and the proof never applies.
        """
        delta_x, delta_q = self.delta_x, self.delta_q
        if self.turns or not delta_q <= math.pi:
            return False
        r = delta_x * self.radius_draw ** (1.0 / 3.0)
        a = delta_q * self.angle_draw ** (1.0 / 3.0)
        return (r + 2.0 ** -1000 < delta_x * (1.0 - 2.0 ** -40)
                and a * a + 2.0 ** -35 < delta_q * delta_q * (1.0 - 2.0 ** -40))


def _commit_twist(cube: PhysicalCube) -> None:
    drawn = cube._drawn
    mi, anchored = _COMMITS[drawn and drawn.up or up_face(cube.pose.orientation)]
    cube.logical = successor(cube.logical, mi)
    cube.layer_misalignment = 0.0
    if anchored:
        # anchor piece rides the twisted layer: the body frame turns with it
        drawn = cube._drawn  # None once the up face read the pose
        if drawn:
            drawn.turns += 1  # materialize replays the turns in order
            if drawn.turns == _PROVEN_TURNS:
                drawn.up = None
        else:
            cube.pose = Pose(cube.pose.position,
                             (_TWIST_ROTATION * cube.pose.orientation).normalized())


def _goal_reached(cube: PhysicalCube, goal: Quaternion, delta_x: float, delta_q: float) -> bool:
    """pose_goal_reached on the cube's pose, by proof where the pose is still
    drawn (by the re-pose just made to this goal, with these thresholds)."""
    drawn = cube._drawn
    return ((drawn is not None and drawn.proven_reached())
            or pose_goal_reached(cube.pose, goal, delta_x, delta_q))


def _normal_draw(rng) -> Sequence[float]:
    """A standard normal 3-vector, redrawn while its computed norm is below
    1e-12, as _unit needs.

    A component of magnitude at least 2e-12 proves that it is not: its
    square rounds to at least 4e-24 (1 - 2^-52), far above underflow; a
    rounded sum of non-negative terms is no less than its largest term, so
    the computed norm is at least about 2e-12.  Only a draw with no such
    component computes the norm.
    """
    while True:
        v = rng.standard_normal(3)
        x, y, z = v
        if (abs(x) >= 2e-12 or abs(y) >= 2e-12 or abs(z) >= 2e-12
                or math.sqrt(np.dot(v, v)) >= 1e-12):
            return v


def _unit(v: Sequence[float]) -> Vector3:
    """v / |v|, for a draw of _normal_draw.  The norm is numpy's float64 dot,
    whose bits can differ from a Python sum of squares."""
    a = np.array(v)
    n = math.sqrt(a.dot(a))
    x, y, z = v
    return (x / n, y / n, z / n)


def _sample_failure_pose(rng) -> Pose:
    """A failed or randomized re-pose: a position uniform in the ball of
    FAILURE_POS_RADIUS about the palm point (direction, then a cube-root
    radius), then a Haar-uniform orientation, drawn in that order."""
    c, u = PALM_CENTER, _unit(_normal_draw(rng))
    r = FAILURE_POS_RADIUS * rng.random() ** (1.0 / 3.0)
    return Pose((c[0] + u[0] * r, c[1] + u[1] * r, c[2] + u[2] * r),
                Quaternion.random_uniform(rng))


# ---------------------------------------------------------------------------
# atomic actions
# ---------------------------------------------------------------------------

def attempt_rotate(cube: PhysicalCube, step: Step, model: ActuationModel, rng,
                   delta_x: float = DELTA_X, delta_q: float = DELTA_Q) -> bool:
    """One re-pose attempt to `step.goal`.  Mutates the pose, never the logical state.

    Returns the actuator's Bernoulli outcome; the pose lands inside the
    goal tolerance on success and in the failure distribution otherwise.
    """
    success = rng.random() < model.p_rot
    if success:
        # the draws of the pose, in argument order: direction, radius, axis, angle
        cube._drawn = _DrawnPose(step, _normal_draw(rng), rng.random(),
                                 _normal_draw(rng), rng.random(), delta_x, delta_q)
    else:
        cube.pose = _sample_failure_pose(rng)
    return success


def attempt_twist(cube: PhysicalCube, model: ActuationModel, rng) -> bool:
    """One -90 degree top-layer twist attempt.

    Misalignment beyond the chamfer tolerance jams the layer: automatic
    failure with no state change.  A successful attempt snaps the layers
    into alignment at -90 degrees and commits the move of the face
    currently up.  A failed attempt leaves a residual angle from the
    failure distribution, snapping to the nearest alignment when within
    5 degrees of 0 or -90 (the latter still commits the move).
    """
    if abs(cube.layer_misalignment) > CHAMFER_TOLERANCE:
        return False
    if rng.random() < model.p_op:
        _commit_twist(cube)
        return True
    # Generator.uniform's own formula, low + (high - low) * a double, without its call
    residual = FAILURE_ANGLE_LOW + (FAILURE_ANGLE_HIGH - FAILURE_ANGLE_LOW) * rng.random()
    if abs(residual - TWIST_TARGET) <= CHAMFER_TOLERANCE:
        _commit_twist(cube)  # slipped through to the next detent
    elif abs(residual) <= CHAMFER_TOLERANCE:
        cube.layer_misalignment = 0.0
    else:
        cube.layer_misalignment = residual
    return False


def attempt_restore(cube: PhysicalCube, model: ActuationModel, rng) -> bool:
    """Randomization attempt to re-align a misaligned layer.

    On success the layer snaps to the nearest alignment; snapping to -90
    degrees commits the pending move.  On failure nothing moves.
    """
    if rng.random() < model.p_restore:
        if cube.layer_misalignment < TWIST_TARGET / 2.0:
            _commit_twist(cube)
        else:
            cube.layer_misalignment = 0.0
        return True
    return False


def _pose_errors(cube: PhysicalCube, goal: Quaternion) -> tuple[float, float]:
    return (math.dist(cube.pose.position, PALM_CENTER),
            orientation_distance(cube.pose.orientation, goal))


# ---------------------------------------------------------------------------
# the action loop
# ---------------------------------------------------------------------------

def execute_move_rollback(cube: PhysicalCube, step: Step,
                          model: ActuationModel, config: ExecutorConfig, rng,
                          log: _ActionLog | None = None, checked: bool = True) -> MoveOutcome:
    """Run one compiled step: a re-pose, then 1 or 3 twists.

    Checked, this is the rollback workflow of the module docstring and
    the outcome is the completion check's.  Unchecked (open loop) it
    fires one rotate attempt and the twists and returns UNCHECKED.
    """
    if log is None:
        log = _ActionLog(config.action_budget)
    goal = step.goal
    budget, trace = log.budget, log.trace
    delta_x, delta_q = config.delta_x, config.delta_q
    rotates = config.r1_max if checked else 1

    expected = successor(cube.logical, step.index) if checked else None
    posed = False
    for attempt in range(rotates):
        if log.count >= budget:
            return _BUDGET_EXHAUSTED
        ok = attempt_rotate(cube, step, model, rng, delta_x, delta_q)
        log.count += 1
        if trace:
            log.record("rotate", ok, cube, goal)
        posed = not checked or _goal_reached(cube, goal, delta_x, delta_q)
        if posed:
            break
        if attempt + 1 < rotates:
            if log.count >= budget:
                return _BUDGET_EXHAUSTED
            cube.pose = _sample_failure_pose(rng)  # shake out of a bad re-pose basin
            log.count += 1
            if trace:
                log.record("randomize", True, cube, goal)

    if posed:
        for _ in range(step.twists):
            if log.count >= budget:
                return _BUDGET_EXHAUSTED
            ok = attempt_twist(cube, model, rng)
            log.count += 1
            if trace:
                log.record("twist", ok, cube)
            if not checked:
                continue
            restores = 0
            while cube.layer_misalignment != 0.0 and restores < config.r2_max:
                if log.count >= budget:
                    return _BUDGET_EXHAUSTED
                rok = attempt_restore(cube, model, rng)
                log.count += 1
                if trace:
                    log.record("restore", rok, cube)
                restores += 1
            if cube.layer_misalignment != 0.0:
                break  # layer stuck beyond the restore budget; give up on this move

    if not checked:
        return _UNCHECKED
    return _COMPLETED if cube.logical == expected else _NEEDS_REPLAN


Planner = Callable[[int], Sequence[Step]]


def execute_episode(scramble: int, mode: ExecutionMode, planner: Planner,
                    model: ActuationModel, config: ExecutorConfig, rng,
                    trace: bool = False) -> EpisodeReport:
    """Run one solve episode from rank `scramble` and report SR bookkeeping.

    Rollback mode re-plans from the current logical state whenever a move
    fails its completion check; open-loop mode plans once and fires every
    compiled action with no checks at all.  Success is judged only on the
    final logical state.  With `trace`, the report holds one TraceEntry
    per atomic action; without, it only counts them.
    """
    checked = mode is ExecutionMode.ROLLBACK
    cube = PhysicalCube.at_rest(scramble)
    log = _ActionLog(config.action_budget, trace)
    moves_attempted = replans = 0

    while cube.logical != 0 and log.count < log.budget:
        plan = planner(cube.logical)
        steps = iter(plan)
        for step in steps:
            if log.count >= log.budget:
                break
            moves_attempted += 1
            outcome = execute_move_rollback(cube, step, model, config, rng, log, checked)
            if outcome is _NEEDS_REPLAN:
                replans += 1
                break
            if not (checked or trace) and abs(cube.layer_misalignment) > CHAMFER_TOLERANCE:
                # jammed for good (attempt_twist's test): count the rest of the plan
                for step in steps:
                    if log.count >= log.budget:
                        break
                    moves_attempted += 1
                    log.count = min(log.count + 1 + step.twists, log.budget)
        if not checked or not plan:
            break

    return EpisodeReport(
        success=cube.logical == 0,
        atomic_actions=log.count,
        moves_attempted=moves_attempted,
        replans=replans,
        final_rank=cube.logical,
        trace=log.entries,
    )
