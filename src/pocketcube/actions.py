"""Compile generalized moves into the two-stage atomic hand actions.

Each move becomes one `Step`: re-pose the whole cube so a twistable layer
faces up (a goal pose from a fixed three-row orientation table), then twist
the top layer by -90 degrees, three times for the clockwise variant.  The
six Steps are built once at import, as `STEPS` by move index, and shared by
every plan.

Frames.  The hand frame is z-up.  The cube's body frame is the canonical
frame of the anchored bottom piece: body +x is the canonical R-face
normal, body +y the B-face normal, body +z the U-face normal.  With that
binding the goal table reads

    U, U'  ->  identity          (U face up)
    R, R'  ->  90 deg about -y   (R face up)
    F, F'  ->  90 deg about +x   (B face up; turning the counter face the
                                  same way has the same quotient effect)

and a single -90 degree top twist in each pose commits exactly the prime
move of that class, so primes cost one twist and non-primes three.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cube import GENERALIZED_MOVES, CubeError, Move

# goal-check thresholds: 0.01 m position, 0.1 rad orientation
DELTA_X = 0.01
DELTA_Q = 0.1

TWIST_TARGET = -math.pi / 2

Vector3 = tuple[float, float, float]

PALM_CENTER: Vector3 = (0.0, 0.0, 0.0)


class Quaternion(NamedTuple):
    """Unit rotation quaternion, w first; q and -q are the same rotation; * is the product."""

    w: float
    x: float
    y: float
    z: float

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis: Vector3, angle: float) -> "Quaternion":
        n = math.sqrt(axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2)
        s = math.sin(angle / 2.0) / n
        return cls(math.cos(angle / 2.0), axis[0] * s, axis[1] * s, axis[2] * s)

    @classmethod
    def random_uniform(cls, rng) -> "Quaternion":
        """A normal 4-vector normalized; the norm is numpy's float64 dot,
        whose bits can differ from a Python sum of squares."""
        while True:
            q = rng.standard_normal(4)
            a = np.array(q)
            n = math.sqrt(a.dot(a))
            if n > 1e-9:
                w, x, y, z = q
                return cls(w / n, x / n, y / n, z / n)

    def normalized(self) -> "Quaternion":
        w, x, y, z = self
        n = math.sqrt(w ** 2 + x ** 2 + y ** 2 + z ** 2)
        return Quaternion(w / n, x / n, y / n, z / n)

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        aw, ax, ay, az = self
        bw, bx, by, bz = o
        return Quaternion(
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by + ay * bw + az * bx - ax * bz,
            aw * bz + az * bw + ax * by - ay * bx,
        )


_SQ2 = math.sqrt(0.5)  # exact 1/sqrt(2); the table's 0.707 is its rounding

_GOAL_BY_FACE = {
    "U": Quaternion(1.0, 0.0, 0.0, 0.0),
    "R": Quaternion(_SQ2, 0.0, -_SQ2, 0.0),
    "F": Quaternion(_SQ2, _SQ2, 0.0, 0.0),
}


def goal_orientation(move: Move) -> Quaternion:
    """Re-pose target for `move`; one row per move class U/R/F."""
    if move not in GENERALIZED_MOVES:
        raise CubeError(f"{move.value} is not in the generalized move set")
    return _GOAL_BY_FACE[move.face]


def orientation_distance(q: Quaternion, q_target: Quaternion) -> float:
    """Rotation angle between two unit quaternions, double-cover safe.

    2*arccos(Real(q_target * conj(q))), with the real part taken in
    absolute value so that q and -q compare as identical.  The real part is
    written out; it equals the product's bit for bit, since IEEE negation
    is exact: a*(-b) == -(a*b) and t - (-p) == t + p.
    """
    tw, tx, ty, tz = q_target
    w, x, y, z = q
    real = abs(tw * w + tx * x + ty * y + tz * z)
    return 2.0 * math.acos(min(1.0, real))


class Pose(NamedTuple):
    position: Vector3
    orientation: Quaternion


def pose_goal_reached(pose: Pose, goal: Quaternion,
                      delta_x: float = DELTA_X, delta_q: float = DELTA_Q) -> bool:
    """Whether `pose` sits within delta_x of PALM_CENTER, where every re-pose
    aims, and within delta_q of the goal orientation."""
    dx = math.dist(pose.position, PALM_CENTER)
    return dx < delta_x and orientation_distance(pose.orientation, goal) < delta_q


def up_face(orientation: Quaternion) -> str:
    """Body face whose outward normal points closest to the hand up axis.

    The hand-frame z of the body axes is the third row of the rotation
    matrix; faces are taken in order U D R L F B, the first maximum wins.
    """
    w, x, y, z = orientation
    up_x, up_y, up_z = 2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)
    heights = (up_z, -up_z, up_x, -up_x, -up_y, up_y)
    return "UDRLFB"[heights.index(max(heights))]


class Step(NamedTuple):
    """One compiled move: re-pose to `goal`, an orientation at PALM_CENTER,
    then `twists` top-layer twists.

    `index` is the move's position in GENERALIZED_MOVES and `face` the body
    face the goal puts up (U, R or B), whose prime move each twist commits.
    """

    index: int
    goal: Quaternion
    face: str
    twists: int


def _step(index: int, move: Move) -> Step:
    goal = goal_orientation(move)
    return Step(index, goal, up_face(goal), 1 if move.is_prime else 3)


# the shared Step of each generalized move, by its index
STEPS = tuple(_step(i, move) for i, move in enumerate(GENERALIZED_MOVES))
