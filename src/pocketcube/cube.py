"""Exact model of the 2x2x2 cube: states, moves, canonicalization, indexing.

Conventions fixed here and relied on by every other module:

Faces are ordered U, D, R, L, F, B and carry the home colors white, yellow,
red, orange, green, blue (letters W Y R O G B).  The 24 stickers are
enumerated four per face in that face order; within a face they run
row-major from the upper-left of the face's standard unfolded ("cross")
view::

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
from operator import itemgetter
from typing import Iterable, Sequence

N_PERM = 5040  # 7!
N_ORI = 729  # 3**6
N_STATES = N_PERM * N_ORI  # 3,674,160

FACES = ("U", "D", "R", "L", "F", "B")

CORNER_NAMES = ("URF", "UFL", "ULB", "UBR", "DFR", "DLF", "DRB", "DLB")
ANCHOR = 7  # DLB


class CubeError(ValueError):
    """Base for all cube-model errors."""


class IllegalColoring(CubeError):
    """A facelet vector does not use each color exactly four times."""


class IllegalCubelet(CubeError):
    """A corner's three colors do not form (exactly one) real cubelet."""


class IllegalTwist(CubeError):
    """Corner orientations sum to a nonzero value mod 3."""


class ParseError(CubeError):
    """Bad move text; `position` is the 1-based index of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token {position})")
        self.position = position


class Color(Enum):
    WHITE = "W"
    YELLOW = "Y"
    RED = "R"
    ORANGE = "O"
    GREEN = "G"
    BLUE = "B"

    @property
    def letter(self) -> str:
        return self.value


# home color of each face, by face index
FACE_COLORS = (Color.WHITE, Color.YELLOW, Color.RED,
               Color.ORANGE, Color.GREEN, Color.BLUE)


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

# facelet index -> (slot, face normal) and the inverse map
_FACELET_SLOT: list[int] = []
_FACELET_INDEX: dict[tuple[int, _Vec], int] = {}
for _face in FACES:
    _n, _r, _d = _FACE_NORMAL[_face], _FACE_RIGHT[_face], _FACE_DOWN[_face]
    for _row in (0, 1):
        for _col in (0, 1):
            _pos = _vadd(_n, _vscale(_r, 2 * _col - 1), _vscale(_d, 2 * _row - 1))
            _slot = _SLOT_OF_POS[_pos]
            _FACELET_INDEX[(_slot, _n)] = len(_FACELET_SLOT)
            _FACELET_SLOT.append(_slot)

# home sticker colors of cubelet k along its axis cycle (axes of slot k)
_HOME_COLORS: tuple[tuple[Color, Color, Color], ...] = tuple(
    tuple(FACE_COLORS[FACES.index(_FACE_OF_NORMAL[a])] for a in _AXES[k])
    for k in range(8)
)

# color triple as laid out in a slot -> (cubelet id, twist)
_TRIPLE_TO_CUBELET: dict[tuple[Color, Color, Color], tuple[int, int]] = {}
for _k in range(8):
    for _t in range(3):
        _laid = tuple(_HOME_COLORS[_k][(j - _t) % 3] for j in range(3))
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


def _apply_transform(state: CubeletState, tr: Transform) -> tuple[tuple[int, ...], tuple[int, ...]]:
    src, dori = tr
    perm = tuple(state.perm[src[i]] for i in range(8))
    ori = tuple((state.ori[src[i]] + dori[i]) % 3 for i in range(8))
    return perm, ori


def apply(state: CubeletState, move: Move) -> CubeletState:
    """Quarter-turn `move` applied to `state` (pure; total on valid states)."""
    perm, ori = _apply_transform(state, _MOVE_TABLE[move])
    return CubeletState(perm, ori)


def apply_seq(state: CubeletState, seq: Sequence[Move]) -> CubeletState:
    for move in seq:
        state = apply(state, move)
    return state


def canonicalize(state: CubeletState) -> CanonicalState:
    """Rotate the whole cube so the anchor sits home; idempotent."""
    slot = state.perm.index(ANCHOR)
    perm, ori = _apply_transform(state, _ANCHOR_FIX[(slot, state.ori[slot])])
    return CanonicalState(perm, ori)


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

# the two enumerations that define the perm code and the twist code
_PERMS = tuple(itertools.permutations(range(7)))
_TWISTS = tuple(t[::-1] for t in itertools.product(range(3), repeat=6))
_PERM_CODE = {p: i for i, p in enumerate(_PERMS)}
_TWIST_CODE = {t: i for i, t in enumerate(_TWISTS)}
# per twist code, the twists of all eight slots: slot 6 closes the sum
_ORIS = tuple(t + ((-sum(t)) % 3, 0) for t in _TWISTS)


def rank(state: CubeletState) -> int:
    """Index of a canonical state in [0, 3,674,160); solved ranks 0."""
    if state.perm[ANCHOR] != ANCHOR or state.ori[ANCHOR] != 0:
        raise CubeError("rank is defined on canonical states only")
    return _PERM_CODE[state.perm[:7]] * N_ORI + _TWIST_CODE[state.ori[:6]]


def unrank(index: int) -> CanonicalState:
    """Inverse of rank; rejects indices outside [0, 3,674,160)."""
    if not 0 <= index < N_STATES:
        raise CubeError(f"rank {index} out of range [0, {N_STATES})")
    perm_code, twist_code = divmod(index, N_ORI)
    state = object.__new__(CanonicalState)  # valid by construction: no __post_init__
    state.__dict__.update(perm=_PERMS[perm_code] + (ANCHOR,), ori=_ORIS[twist_code], rank=index)
    return state


def coordinate_moves() -> tuple[list[list[int]], list[list[int]]]:
    """Successor codes of the six generalized moves, per coordinate.

    Returns (perm, twist): perm[m][code] is the perm code after move
    GENERALIZED_MOVES[m] from perm code `code`, whatever the twists, and
    twist[m][code] likewise for twist codes, whatever the permutation.
    """
    perm, twist = [], []
    for move in GENERALIZED_MOVES[::2]:
        src, dori = _MOVE_TABLE[move]
        moved = tuple(zip(src[:6], dori[:6]))
        perm_col = list(map(_PERM_CODE.__getitem__, map(itemgetter(*src[:7]), _PERMS)))
        twist_col = [_TWIST_CODE[tuple((o[s] + d) % 3 for s, d in moved)] for o in _ORIS]
        # the prime move next in GENERALIZED_MOVES undoes this one, so its
        # columns are the inverse permutations (the argsorts) of these
        perm += [perm_col, sorted(range(N_PERM), key=perm_col.__getitem__)]
        twist += [twist_col, sorted(range(N_ORI), key=twist_col.__getitem__)]
    return perm, twist


def random_canonical(rng) -> CanonicalState:
    return unrank(int(rng.integers(0, N_STATES)))


# ---------------------------------------------------------------------------
# facelet conversions and notation
# ---------------------------------------------------------------------------

FaceletState = tuple[Color, ...]  # length 24, module-docstring enumeration


def to_facelets(state: CubeletState) -> FaceletState:
    stickers: list[Color | None] = [None] * 24
    for slot in range(8):
        cubelet, twist = state.perm[slot], state.ori[slot]
        for j in range(3):
            axis = _AXES[slot][(j + twist) % 3]
            stickers[_FACELET_INDEX[(slot, axis)]] = _HOME_COLORS[cubelet][j]
    return tuple(stickers)  # type: ignore[arg-type]


def from_facelets(facelets: Sequence[Color]) -> CubeletState:
    """Decode and validate a 24-sticker vector.

    Raises IllegalColoring (bad color counts), IllegalCubelet (a corner's
    colors match no real cubelet, or a cubelet appears twice) or
    IllegalTwist (total twist nonzero mod 3).
    """
    if len(facelets) != 24:
        raise IllegalColoring(f"expected 24 stickers, got {len(facelets)}")
    for color in Color:
        n = sum(1 for c in facelets if c is color)
        if n != 4:
            raise IllegalColoring(f"color {color.letter} appears {n} times, expected 4")
    perm: list[int] = []
    ori: list[int] = []
    for slot in range(8):
        triple = tuple(facelets[_FACELET_INDEX[(slot, a)]] for a in _AXES[slot])
        try:
            cubelet, twist = _TRIPLE_TO_CUBELET[triple]
        except KeyError:
            letters = "".join(c.letter for c in triple)
            raise IllegalCubelet(
                f"stickers {letters} at corner {CORNER_NAMES[slot]} form no cubelet"
            ) from None
        if cubelet in perm:
            raise IllegalCubelet(f"cubelet {CORNER_NAMES[cubelet]} appears twice")
        perm.append(cubelet)
        ori.append(twist)
    if sum(ori) % 3 != 0:
        raise IllegalTwist(f"total twist {sum(ori)} != 0 mod 3")
    return CubeletState(tuple(perm), tuple(ori))


_COLOR_BY_LETTER = {c.letter: c for c in Color}


def facelets_to_string(facelets: Sequence[Color]) -> str:
    return "".join(c.letter for c in facelets)


def string_to_facelets(text: str) -> FaceletState:
    text = text.strip().upper()
    bad = [ch for ch in text if ch not in _COLOR_BY_LETTER]
    if bad:
        raise IllegalColoring(f"unknown color letters {bad!r}")
    return tuple(_COLOR_BY_LETTER[ch] for ch in text)


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
