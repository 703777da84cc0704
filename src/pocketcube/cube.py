"""Exact model of the 2x2x2 cube: states, moves, canonicalization, indexing.

Conventions fixed here and relied on by every other module:

Faces are ordered U, D, R, L, F, B and carry the home colors white, yellow,
red, orange, green, blue (letters W Y R O G B).  A state's stickers are one
24-letter string of those letters, in the CLI and the API alike:
to_facelets writes it and from_facelets reads it.  They are enumerated four
per face in that face order; within a face they run row-major from the
upper-left of the face's standard unfolded ("cross") view::

            U                 indices
          L F R B     U: 0-3   D: 4-7   R: 8-11
            D         L: 12-15 F: 16-19 B: 20-23

         +--+--+
         | 0| 1|            U viewed with B at the top,
         +--+--+            D viewed with F at the top,
         | 2| 3|            side faces viewed upright.
   +--+--+--+--+--+--+--+--+
   |12|13|16|17| 8| 9|20|21|
   +--+--+--+--+--+--+--+--+
   |14|15|18|19|10|11|22|23|
   +--+--+--+--+--+--+--+--+
         | 4| 5|
         +--+--+
         | 6| 7|
         +--+--+

Cubelets are named by their home corner and numbered

    0 URF   1 UFL   2 ULB   3 UBR   4 DFR   5 DLF   6 DRB   7 DLB

with DLB last: it is the anchor that canonicalization pins into slot 7.
Orientation of a cubelet counts clockwise twists (viewed from outside
along the corner diagonal) of its white/yellow sticker away from the
slot's U/D face; the total twist of a legal state is 0 mod 3.

A canonical state keeps cubelet 7 in slot 7 untwisted, which quotients
away the 24 whole-cube rotations and leaves 7! * 3^6 = 3,674,160 states.
Its rank is perm code * 729 + twist code, and two enumerations define both
coordinates: the perm code is the index of slots 0..6's permutation in
lexicographic order (which is its Lehmer code), the twist code the index
of slots 0..5's twists in base-3 order, least significant digit first
(sum(ori[i] * 3^i, i<6)).  The solved state ranks 0.  The six generalized
moves U U' R R' F F' fix the anchor and generate the whole canonical
space; each acts on the two coordinates independently.

Moves use standard quarter-turn notation (U D R L F B, primes for
counterclockwise); each is applied through a precomputed slot-permutation
/ twist-delta table derived once, at import, from the face geometry in
exact integer algebra.  A quarter turn about the outward face normal n is
the matrix n n^T + s [n]x (Rodrigues' formula at 90 degrees; s = -1 for a
plain move, +1 for a prime), the 24 whole-cube rotations are the signed
permutation matrices of determinant +1, and each corner's twist axes are
its three face normals in clockwise order, read off the signs of its
position.
reduce_move pairs each of the six anchored-layer moves (D L B and primes)
with the generalized move that acts identically on canonical states; the
pairing is derived at import from the solved state alone, and
check_move_reduction proves it for every canonical state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

N_PERM = 5040  # 7!
N_ORI = 729  # 3**6
N_STATES = N_PERM * N_ORI  # 3,674,160
DIAMETER = 14  # the most quarter turns any state needs; verify certifies it

FACES = ("U", "D", "R", "L", "F", "B")

CORNER_NAMES = ("URF", "UFL", "ULB", "UBR", "DFR", "DLF", "DRB", "DLB")
ANCHOR = 7  # DLB


class CubeError(ValueError):
    """Base for all cube-model errors."""


class IllegalColoring(CubeError):
    """Facelet text is not 24 of the letters W Y R O G B, four of each."""


class IllegalCubelet(CubeError):
    """A corner's three colors do not form (exactly one) real cubelet."""


class IllegalTwist(CubeError):
    """Corner orientations sum to a nonzero value mod 3."""


class ParseError(CubeError):
    """Bad move text; `position` is the 1-based index of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token {position})")
        self.position = position


# home color letter of each face, by face index
FACE_COLORS = "WYROGB"


class Move(Enum):
    U = "U"
    U_PRIME = "U'"
    D = "D"
    D_PRIME = "D'"
    R = "R"
    R_PRIME = "R'"
    L = "L"
    L_PRIME = "L'"
    F = "F"
    F_PRIME = "F'"
    B = "B"
    B_PRIME = "B'"

    @property
    def face(self) -> str:
        return self.value[0]

    @property
    def is_prime(self) -> bool:
        return self.value.endswith("'")

    def __repr__(self) -> str:  # "Move.R_PRIME" is noise in test diffs
        return f"Move({self.value!r})"


# The reduced move set: the layers that never touch the DLB anchor.
# This tuple also fixes the solver's deterministic child order.
GENERALIZED_MOVES = (Move.U, Move.U_PRIME, Move.R, Move.R_PRIME,
                     Move.F, Move.F_PRIME)


# ---------------------------------------------------------------------------
# geometry: derive sticker enumeration and move tables from face vectors
# ---------------------------------------------------------------------------

_Vec = tuple[int, int, int]
_Mat = tuple[_Vec, _Vec, _Vec]  # rows

_FACE_NORMAL: dict[str, _Vec] = {
    "U": (0, 1, 0), "D": (0, -1, 0), "R": (1, 0, 0),
    "L": (-1, 0, 0), "F": (0, 0, 1), "B": (0, 0, -1),
}
# "right" and "down" of each face in its unfolded view (see module docstring)
_FACE_RIGHT: dict[str, _Vec] = {
    "U": (1, 0, 0), "D": (1, 0, 0), "R": (0, 0, -1),
    "L": (0, 0, 1), "F": (1, 0, 0), "B": (-1, 0, 0),
}
_FACE_DOWN: dict[str, _Vec] = {
    "U": (0, 0, 1), "D": (0, 0, -1), "R": (0, -1, 0),
    "L": (0, -1, 0), "F": (0, -1, 0), "B": (0, -1, 0),
}

_FACE_OF_NORMAL = {v: k for k, v in _FACE_NORMAL.items()}


def _vadd(a: _Vec, b: _Vec, c: _Vec) -> _Vec:
    return (a[0] + b[0] + c[0], a[1] + b[1] + c[1], a[2] + b[2] + c[2])


def _vscale(a: _Vec, s: int) -> _Vec:
    return (a[0] * s, a[1] * s, a[2] * s)


def _mat_vec(m: _Mat, v: _Vec) -> _Vec:
    return (
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    )


def _quarter_turn(n: _Vec, s: int) -> _Mat:
    """Rotation by s * 90 degrees (s = +-1, right-handed) about the unit
    vector n: Rodrigues' formula at cos 0, sin s, that is n n^T + s [n]x."""
    x, y, z = n
    return ((x * x, x * y - s * z, x * z + s * y),
            (y * x + s * z, y * y, y * z - s * x),
            (z * x - s * y, z * y + s * x, z * z))


def _det(m: _Mat) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _corner_position(name: str) -> _Vec:
    return _vadd(*(_FACE_NORMAL[f] for f in name))


_CORNER_POS: tuple[_Vec, ...] = tuple(_corner_position(n) for n in CORNER_NAMES)
_SLOT_OF_POS = {p: i for i, p in enumerate(_CORNER_POS)}


def _corner_axes(slot: int) -> tuple[_Vec, _Vec, _Vec]:
    # The corner's three face normals in clockwise order (viewed from outside
    # the corner), starting from its U/D normal y.  x -> y -> z runs
    # counterclockwise seen from (1, 1, 1), and each sign flip mirrors the
    # order, so the clockwise order is y -> x -> z when the signs multiply to
    # +1 and y -> z -> x otherwise.
    px, py, pz = _CORNER_POS[slot]
    x, y, z = (px, 0, 0), (0, py, 0), (0, 0, pz)
    return (y, x, z) if px * py * pz > 0 else (y, z, x)


_AXES: tuple[tuple[_Vec, _Vec, _Vec], ...] = tuple(_corner_axes(i) for i in range(8))

# (slot, face normal) -> facelet index
_FACELET_INDEX: dict[tuple[int, _Vec], int] = {}
for _face in FACES:
    _n, _r, _d = _FACE_NORMAL[_face], _FACE_RIGHT[_face], _FACE_DOWN[_face]
    for _row in (0, 1):
        for _col in (0, 1):
            _pos = _vadd(_n, _vscale(_r, 2 * _col - 1), _vscale(_d, 2 * _row - 1))
            _FACELET_INDEX[(_SLOT_OF_POS[_pos], _n)] = len(_FACELET_INDEX)

# home sticker letters of cubelet k along its axis cycle (axes of slot k)
_HOME_COLORS: tuple[str, ...] = tuple(
    "".join(FACE_COLORS[FACES.index(_FACE_OF_NORMAL[a])] for a in _AXES[k])
    for k in range(8)
)

# letter triple as laid out in a slot -> (cubelet id, twist)
_TRIPLE_TO_CUBELET: dict[str, tuple[int, int]] = {}
for _k in range(8):
    for _t in range(3):
        _laid = "".join(_HOME_COLORS[_k][(j - _t) % 3] for j in range(3))
        _TRIPLE_TO_CUBELET[_laid] = (_k, _t)


Transform = tuple[tuple[int, ...], tuple[int, ...]]  # (src slot, twist delta)


def _transform_from_matrix(m: _Mat, slots: Iterable[int]) -> Transform:
    src = list(range(8))
    dori = [0] * 8
    for j in slots:
        tgt = _SLOT_OF_POS[_mat_vec(m, _CORNER_POS[j])]
        src[tgt] = j
        dori[tgt] = _AXES[tgt].index(_mat_vec(m, _AXES[j][0]))
    return tuple(src), tuple(dori)


def _move_transform(move: Move) -> Transform:
    n = _FACE_NORMAL[move.face]
    # a quarter turn clockwise (viewed from outside the face) is -90 degrees
    # about the outward normal; a prime move is +90
    m = _quarter_turn(n, 1 if move.is_prime else -1)
    layer = [i for i, p in enumerate(_CORNER_POS)
             if p[0] * n[0] + p[1] * n[1] + p[2] * n[2] == 1]
    return _transform_from_matrix(m, layer)


_MOVE_TABLE: dict[Move, Transform] = {mv: _move_transform(mv) for mv in Move}


def _whole_cube_rotations() -> tuple[Transform, ...]:
    # the cube's 24 rotations: the signed permutation matrices of det +1
    mats = (tuple(tuple(sign if j == col else 0 for j in range(3))
                  for sign, col in zip(signs, cols))
            for cols in itertools.permutations(range(3))
            for signs in itertools.product((1, -1), repeat=3))
    return tuple(_transform_from_matrix(m, range(8)) for m in mats if _det(m) == 1)


ROTATIONS: tuple[Transform, ...] = _whole_cube_rotations()

# (slot holding the anchor, anchor twist) -> rotation putting it home
_ANCHOR_FIX: dict[tuple[int, int], Transform] = {}
for _rot in ROTATIONS:
    _src, _dori = _rot
    _ANCHOR_FIX[(_src[ANCHOR], (-_dori[ANCHOR]) % 3)] = _rot
assert len(_ANCHOR_FIX) == 24


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeletState:
    """Cube as slot->cubelet permutation plus per-slot twist counts."""

    perm: tuple[int, ...]
    ori: tuple[int, ...]

    def __post_init__(self):
        if len(self.perm) != 8 or sorted(self.perm) != list(range(8)):
            raise CubeError(f"perm is not a permutation of 0..7: {self.perm!r}")
        if len(self.ori) != 8 or any(o not in (0, 1, 2) for o in self.ori):
            raise CubeError(f"ori entries must be in 0..2: {self.ori!r}")
        if sum(self.ori) % 3 != 0:
            raise IllegalTwist(f"orientation sum {sum(self.ori)} != 0 mod 3")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CubeletState):
            return NotImplemented
        return self.perm == other.perm and self.ori == other.ori

    def __hash__(self) -> int:
        return hash((self.perm, self.ori))


@dataclass(frozen=True, eq=False)
class CanonicalState(CubeletState):
    """A CubeletState with the DLB anchor pinned: perm[7] == 7, ori[7] == 0."""

    def __post_init__(self):
        super().__post_init__()
        if self.perm[ANCHOR] != ANCHOR or self.ori[ANCHOR] != 0:
            raise CubeError("not canonical: anchor cubelet out of place")

    @functools.cached_property
    def rank(self) -> int:
        """`rank(self)`, computed on first read; `unrank` stores the rank
        it was given, so a state it made is never ranked again."""
        return rank(self)


SOLVED = CubeletState(tuple(range(8)), (0,) * 8)


def _valid(cls: type, perm: tuple[int, ...], ori: tuple[int, ...]):
    """A `cls` holding `perm` and `ori`, without `__post_init__`: for states
    valid by construction, which a move or a whole-cube rotation of a valid
    state is, as is an enumeration entry.  `CubeletState(...)` and
    `CanonicalState(...)` still check theirs.  The fields are stored one by
    one, in `__init__`'s order, which keeps the instance dict as compact
    and as quick to read as `__init__`'s."""
    state = object.__new__(cls)
    fields = state.__dict__
    fields["perm"], fields["ori"] = perm, ori
    return state


def _apply_transform(state: CubeletState, tr: Transform) -> tuple[tuple[int, ...], tuple[int, ...]]:
    src, dori = tr
    perm = tuple(state.perm[src[i]] for i in range(8))
    ori = tuple((state.ori[src[i]] + dori[i]) % 3 for i in range(8))
    return perm, ori


def apply(state: CubeletState, move: Move) -> CubeletState:
    """Quarter-turn `move` applied to `state` (pure; total on valid states).
    The result is not re-validated: a move of a valid state is valid."""
    return _valid(CubeletState, *_apply_transform(state, _MOVE_TABLE[move]))


def apply_seq(state: CubeletState, seq: Sequence[Move]) -> CubeletState:
    for move in seq:
        state = apply(state, move)
    return state


def canonicalize(state: CubeletState) -> CanonicalState:
    """Rotate the whole cube so the anchor sits home; idempotent.

    A CanonicalState is returned unchanged, with its cached rank.  Any
    other state is rotated by the one rotation that pins its anchor, and
    the result is not re-validated: a rotation of a valid state is valid.
    """
    if isinstance(state, CanonicalState):
        return state
    slot = state.perm.index(ANCHOR)
    return _valid(CanonicalState, *_apply_transform(state, _ANCHOR_FIX[(slot, state.ori[slot])]))


def is_solved(state: CubeletState) -> bool:
    return canonicalize(state) == SOLVED


# ---------------------------------------------------------------------------
# move reduction (quotient equivalents of the anchored-layer moves)
# ---------------------------------------------------------------------------

def _acts_as(move: Move, g: Move) -> bool:
    # For a canonical state s the anchor sits in slot 7 untwisted, so `move`
    # always carries it to the same slot with the same twist, and
    # canonicalize(apply(s, move)) is one fixed transform for every s:
    # move's, then _ANCHOR_FIX[(slot, twist)].  A transform (src, dori)
    # applied to SOLVED gives (src, dori) itself, so two transforms that
    # agree on SOLVED agree on every state: this one comparison decides
    # canonicalize(apply(s, move)) == apply(s, g) for all canonical s.
    return canonicalize(apply(SOLVED, move)) == apply(SOLVED, g)


def _reduced(move: Move) -> Move:
    matches = [g for g in GENERALIZED_MOVES if _acts_as(move, g)]
    if len(matches) != 1:
        raise RuntimeError(f"move {move.value} matches {len(matches)} generalized "
                           f"moves, expected exactly 1: {matches}")
    return matches[0]


_REDUCTION: dict[Move, Move] = {move: _reduced(move) for move in Move}


def reduce_move(move: Move) -> Move:
    """The generalized move equivalent to `move` on canonical states."""
    return _REDUCTION[move]


def check_move_reduction() -> tuple[bool, str]:
    """Proof that reduce_move is exact: the transform identity, move by move."""
    for move in Move:
        reduced = reduce_move(move)
        if reduced not in GENERALIZED_MOVES:
            return False, f"{move.value} reduced outside the generalized set"
        if not _acts_as(move, reduced):
            return False, f"{move.value} -> {reduced.value} fails the transform identity"
    return True, (f"12 transform identities on the solved state cover all "
                  f"{N_STATES} canonical states")


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

# the two enumerations that define the perm code and the twist code, as
# whole tuples of a canonical state, so `rank` and `unrank` slice and join
# none: a perm ends in the anchor; an ori in slot 6's twist, which closes the
# sum, and the anchor's 0, so every valid canonical state's ori is one of them
_PERMS = tuple(p + (ANCHOR,) for p in itertools.permutations(range(7)))
_ORIS = tuple(t[::-1] + ((-sum(t)) % 3, 0) for t in itertools.product(range(3), repeat=6))
_PERM_CODE = {p: i for i, p in enumerate(_PERMS)}
_TWIST_CODE = {o: i for i, o in enumerate(_ORIS)}


def rank(state: CubeletState) -> int:
    """Index of a canonical state in [0, 3,674,160); solved ranks 0."""
    if state.perm[ANCHOR] != ANCHOR or state.ori[ANCHOR] != 0:
        raise CubeError("rank is defined on canonical states only")
    return _PERM_CODE[state.perm] * N_ORI + _TWIST_CODE[state.ori]


def unrank(index: int) -> CanonicalState:
    """Inverse of rank; rejects indices outside [0, 3,674,160)."""
    if not 0 <= index < N_STATES:
        raise CubeError(f"rank {index} out of range [0, {N_STATES})")
    perm_code, twist_code = divmod(index, N_ORI)
    state = _valid(CanonicalState, _PERMS[perm_code], _ORIS[twist_code])
    state.__dict__["rank"] = index  # the cached property's value: never ranked again
    return state


@functools.cache
def _perm_rows() -> np.ndarray:
    """`_PERMS` as one (5040, 8) uint8 array, shared by the two below."""
    return np.frombuffer(bytes(itertools.chain.from_iterable(_PERMS)), np.uint8).reshape(N_PERM, 8)


@functools.cache
def move_tables() -> tuple[np.ndarray, np.ndarray]:
    """Successor codes of the six generalized moves, per coordinate.

    Returns (perm, ori): read-only int32 arrays of shape (5040, 6) and
    (729, 6), built once per process.  A generalized move permutes slots
    regardless of twist and adds twists regardless of which cubelet sits
    where, so the successor of a rank is
    ``perm[r // 729, m] * 729 + ori[r % 729, m]``.  Each move's transform
    is applied to the whole enumeration at once and re-coded: a perm code
    is the position of the permutation's key (its eight bytes as a
    big-endian u8) among those of `_PERMS`, which rise with its order, a
    twist code a base-3 sum.  A move permutes the enumeration, so each
    column's positions are the inverse of its keys' argsort; a transform
    whose sorted keys are not the enumeration's raises RuntimeError.
    """
    src, dori = np.array([_MOVE_TABLE[move] for move in GENERALIZED_MOVES]).swapaxes(0, 1)
    rows = _perm_rows()
    keys = rows.take(src, axis=1).view(">u8")[..., 0]
    order = np.argsort(keys, axis=0)
    if not (np.take_along_axis(keys, order, axis=0) == rows.view(">u8")).all():
        raise RuntimeError("a generalized move does not permute the enumeration")
    perm = np.empty(keys.shape, dtype=np.int32)
    np.put_along_axis(perm, order, np.arange(N_PERM, dtype=np.int32)[:, None], axis=0)
    ori = ((np.array(_ORIS)[:, src[:, :6]] + dori[:, :6]) % 3 @ 3 ** np.arange(6)).astype(np.int32)
    perm.flags.writeable = ori.flags.writeable = False
    return perm, ori


def perm_parity() -> np.ndarray:
    """Each perm code's permutation parity, its inversion count mod 2, as
    uint8: the byte tables it fills then take it with no cast."""
    rows = _perm_rows()
    inversions = sum(rows[:, i] > rows[:, j] for i, j in itertools.combinations(range(7), 2))
    return (inversions & 1).astype(np.uint8)


def random_canonical(rng) -> CanonicalState:
    return unrank(int(rng.integers(0, N_STATES)))


# ---------------------------------------------------------------------------
# facelets and notation
# ---------------------------------------------------------------------------

def to_facelets(state: CubeletState) -> str:
    """The 24 sticker letters of `state`, in the module docstring's order."""
    stickers = [""] * 24
    for slot in range(8):
        cubelet, twist = state.perm[slot], state.ori[slot]
        for j in range(3):
            axis = _AXES[slot][(j + twist) % 3]
            stickers[_FACELET_INDEX[(slot, axis)]] = _HOME_COLORS[cubelet][j]
    return "".join(stickers)


def from_facelets(text: str) -> CubeletState:
    """Decode and validate 24 sticker letters, after stripping the
    surrounding whitespace and upper-casing.

    Raises, checking in this order, IllegalColoring (a letter outside
    W Y R O G B, a length other than 24 or a color not used exactly four
    times), IllegalCubelet (a corner's letters match no real cubelet, or a
    cubelet appears twice) or IllegalTwist (total twist nonzero mod 3).
    """
    text = text.strip().upper()
    bad = [ch for ch in text if ch not in FACE_COLORS]
    if bad:
        raise IllegalColoring(f"unknown color letters {bad!r}")
    if len(text) != 24:
        raise IllegalColoring(f"expected 24 stickers, got {len(text)}")
    for color in FACE_COLORS:
        n = text.count(color)
        if n != 4:
            raise IllegalColoring(f"color {color} appears {n} times, expected 4")
    perm: list[int] = []
    ori: list[int] = []
    for slot in range(8):
        triple = "".join(text[_FACELET_INDEX[(slot, a)]] for a in _AXES[slot])
        try:
            cubelet, twist = _TRIPLE_TO_CUBELET[triple]
        except KeyError:
            raise IllegalCubelet(
                f"stickers {triple} at corner {CORNER_NAMES[slot]} form no cubelet"
            ) from None
        if cubelet in perm:
            raise IllegalCubelet(f"cubelet {CORNER_NAMES[cubelet]} appears twice")
        perm.append(cubelet)
        ori.append(twist)
    if sum(ori) % 3 != 0:
        raise IllegalTwist(f"total twist {sum(ori)} != 0 mod 3")
    return CubeletState(tuple(perm), tuple(ori))


_MOVE_BY_NOTATION = {m.value: m for m in Move}


def parse_moves(text: str) -> list[Move]:
    """Whitespace-separated quarter-turn tokens -> move list (case-sensitive)."""
    moves = []
    for i, token in enumerate(text.split(), start=1):
        try:
            moves.append(_MOVE_BY_NOTATION[token])
        except KeyError:
            raise ParseError(f"unknown move {token!r}", i) from None
    return moves


def format_moves(seq: Sequence[Move]) -> str:
    return " ".join(m.value for m in seq)
