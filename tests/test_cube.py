import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pocketcube import cube
from pocketcube.cube import (
    GENERALIZED_MOVES,
    N_STATES,
    ROTATIONS,
    SOLVED,
    CanonicalState,
    Color,
    CubeError,
    CubeletState,
    IllegalColoring,
    IllegalCubelet,
    IllegalTwist,
    Move,
    ParseError,
    apply,
    apply_seq,
    canonicalize,
    facelets_to_string,
    format_moves,
    from_facelets,
    is_solved,
    parse_moves,
    rank,
    random_canonical,
    reduce_move,
    string_to_facelets,
    to_facelets,
    unrank,
)

from conftest import apply_generalized, inverse

# Sticker pictures of one U and one R turn applied to the solved cube,
# traced by hand on the unfolded layout (independent of the move tables).
U_ON_SOLVED = "WWWWYYYYBBRRGGOORRGGOOBB"
R_ON_SOLVED = "WGWGYBYBRRRROOOOGYGYWBWB"

# The three stickers of each corner, read off the unfolded layout in the
# cube module's docstring: URF UFL ULB UBR DFR DLF DRB DLB.
CORNER_STICKERS = ((3, 8, 17), (2, 13, 16), (0, 12, 21), (1, 9, 20),
                   (5, 10, 19), (4, 15, 18), (7, 11, 22), (6, 14, 23))


def random_state(rng) -> CubeletState:
    """Uniform random legal raw state; `rng` is a numpy Generator."""
    perm = tuple(int(x) for x in rng.permutation(8))
    ori = [int(x) for x in rng.integers(0, 3, size=7)]
    ori.append((-sum(ori)) % 3)
    return CubeletState(perm, tuple(ori))


def random_states(seed, n):
    rng = np.random.default_rng(seed)
    return [random_state(rng) for _ in range(n)]


def rotate_state(state, rotation) -> CubeletState:
    """Whole-cube rotation (one of the 24 in ROTATIONS) applied to `state`."""
    src, dori = rotation
    return CubeletState(tuple(state.perm[j] for j in src),
                        tuple((state.ori[j] + d) % 3 for j, d in zip(src, dori)))


def inverse_seq(seq):
    return [inverse(m) for m in reversed(seq)]


class TestGeometry:
    """The exact integer constructions behind the move and rotation tables."""

    def test_quarter_turns_are_proper_rotations_about_their_face(self):
        for n in cube._FACE_NORMAL.values():
            for s in (1, -1):
                m = np.array(cube._quarter_turn(n, s))
                assert np.cross(m[0], m[1]) @ m[2] == 1  # determinant +1
                assert tuple(m @ n) == n
                assert np.array_equal(np.linalg.matrix_power(m, 4), np.eye(3))

    def test_rotations_form_a_group(self):
        identity = (tuple(range(8)), (0,) * 8)
        rotations = set(ROTATIONS)
        assert len(rotations) == 24 and identity in rotations
        for a in ROTATIONS:
            for b in ROTATIONS:
                ab = rotate_state(rotate_state(SOLVED, a), b)
                assert (ab.perm, ab.ori) in rotations

    def test_opposite_layers_turned_together_are_rotations(self):
        for seq in ([Move.U, Move.D_PRIME], [Move.R, Move.L_PRIME], [Move.F, Move.B_PRIME]):
            s = apply_seq(SOLVED, seq)
            assert (s.perm, s.ori) in set(ROTATIONS)

    def test_corner_axes_are_its_face_normals_clockwise(self):
        for slot, name in enumerate(cube.CORNER_NAMES):
            axes = cube._AXES[slot]
            pos = cube._CORNER_POS[slot]
            assert set(axes) == {cube._FACE_NORMAL[f] for f in name}
            assert axes[0] == cube._FACE_NORMAL[name[0]]  # the U/D normal
            # clockwise seen from outside the corner
            for i in range(3):
                assert np.cross(axes[i], axes[(i + 1) % 3]) @ pos == -1


class TestApply:
    def test_u_matches_hand_traced_stickers(self):
        got = facelets_to_string(to_facelets(apply(SOLVED, Move.U)))
        assert got == U_ON_SOLVED

    def test_r_matches_hand_traced_stickers(self):
        got = facelets_to_string(to_facelets(apply(SOLVED, Move.R)))
        assert got == R_ON_SOLVED

    def test_r_cubelet_vector_matches_sticker_decode(self):
        # the same picture decoded through the independent facelet path
        state = from_facelets(string_to_facelets(R_ON_SOLVED))
        assert state == apply(SOLVED, Move.R)
        assert state.perm == (4, 1, 2, 0, 6, 5, 3, 7)
        assert state.ori == (2, 0, 0, 1, 1, 0, 2, 0)

    def test_inverse_cancels(self):
        for s in random_states(1, 20):
            for m in Move:
                assert apply(apply(s, m), inverse(m)) == s

    def test_order_four(self):
        for m in Move:
            s = SOLVED
            for _ in range(4):
                s = apply(s, m)
            assert s == SOLVED

    def test_preserves_invariants(self):
        for s in random_states(2, 50):
            for m in Move:
                t = apply(s, m)
                assert sorted(t.perm) == list(range(8))
                assert sum(t.ori) % 3 == 0

    def test_generalized_moves_never_touch_anchor(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_canonical(rng)
            for m in GENERALIZED_MOVES:
                t = apply_generalized(s, m)
                assert t.perm[7] == 7 and t.ori[7] == 0


class TestApplySeq:
    def test_empty_is_identity(self):
        assert apply_seq(SOLVED, []) == SOLVED

    def test_cancellation(self):
        for s in random_states(4, 100):
            assert apply_seq(s, [Move.U, Move.U_PRIME]) == s

    def test_inverse_seq_roundtrip(self):
        rng = np.random.default_rng(5)
        moves = list(Move)
        for _ in range(100):
            seq = [moves[i] for i in rng.integers(0, 12, size=14)]
            s = apply_seq(SOLVED, seq)
            assert apply_seq(s, inverse_seq(seq)) == SOLVED


class TestCanonicalize:
    def test_solved_is_rank_zero(self):
        assert canonicalize(SOLVED) == SOLVED
        assert canonicalize(SOLVED).rank == 0

    def test_idempotent(self):
        for s in random_states(6, 100):
            c = canonicalize(s)
            assert canonicalize(c) == c

    def test_constant_on_rotation_orbits(self):
        for s in random_states(7, 100):
            reps = {canonicalize(rotate_state(s, r)) for r in ROTATIONS}
            assert len(reps) == 1

    def test_orbits_have_size_24(self):
        for s in random_states(8, 50):
            orbit = {rotate_state(s, r) for r in ROTATIONS}
            assert len(orbit) == 24

    def test_is_instance_of_canonical(self):
        c = canonicalize(random_states(9, 1)[0])
        assert isinstance(c, CanonicalState)
        assert c.perm[7] == 7 and c.ori[7] == 0


class TestReduceMove:
    def test_reduced_moves_map_to_themselves(self):
        for m in GENERALIZED_MOVES:
            assert reduce_move(m) is m

    def test_d_prime_reduces_into_u_class(self):
        assert reduce_move(Move.D_PRIME) in (Move.U, Move.U_PRIME)

    def test_equivalence_identity_all_moves(self):
        rng = np.random.default_rng(10)
        states = [random_canonical(rng) for _ in range(100)]
        for m in Move:
            g = reduce_move(m)
            assert g in GENERALIZED_MOVES
            for s in states:
                assert canonicalize(apply(s, m)) == apply_generalized(s, g)

    def test_reduction_is_a_bijection_per_class(self):
        reduced = [reduce_move(m) for m in Move if m not in GENERALIZED_MOVES]
        assert sorted(m.value for m in reduced) == sorted(m.value for m in GENERALIZED_MOVES)

    def test_check_passes_on_the_derived_table(self):
        ok, detail = cube.check_move_reduction()
        assert ok, detail
        assert str(N_STATES) in detail

    def test_check_fails_on_a_wrong_partner(self, monkeypatch):
        monkeypatch.setitem(cube._REDUCTION, Move.D, Move.U_PRIME)
        ok, detail = cube.check_move_reduction()
        assert not ok
        assert detail.startswith("D -> U'")


class TestRank:
    def test_solved_ranks_zero(self):
        assert rank(SOLVED) == 0
        assert unrank(0) == SOLVED

    def test_boundary_roundtrip(self):
        assert rank(unrank(N_STATES - 1)) == N_STATES - 1

    def test_random_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            i = int(rng.integers(0, N_STATES))
            assert rank(unrank(i)) == i

    def test_unranked_state_keeps_its_rank(self, monkeypatch):
        # .rank on a state from unrank is the stored index, never recomputed;
        # the same state built by hand computes it, once
        states = [unrank(i) for i in (0, 1, 729, 1_234_567, N_STATES - 1)]
        rebuilt = [CanonicalState(s.perm, s.ori) for s in states]
        want = [rank(s) for s in rebuilt]

        def no_rank(state):
            raise AssertionError("cube.rank called")
        monkeypatch.setattr(cube, "rank", no_rank)
        assert [s.rank for s in states] == want
        monkeypatch.undo()
        assert [s.rank for s in rebuilt] == want

    def test_unrank_rejects_out_of_range(self):
        with pytest.raises(CubeError):
            unrank(-1)
        with pytest.raises(CubeError):
            unrank(N_STATES)

    def test_rank_rejects_non_canonical(self):
        with pytest.raises(CubeError):
            rank(apply(SOLVED, Move.D))


class TestFacelets:
    def test_solved_faces_are_uniform(self):
        f = to_facelets(SOLVED)
        for face in range(6):
            assert len({f[4 * face + i] for i in range(4)}) == 1

    def test_roundtrip(self):
        for s in random_states(12, 1000):
            assert from_facelets(to_facelets(s)) == s

    def test_rejects_bad_color_count(self):
        f = list(to_facelets(SOLVED))
        f[0] = Color.YELLOW
        with pytest.raises(IllegalColoring):
            from_facelets(f)

    def test_rejects_wrong_length(self):
        with pytest.raises(IllegalColoring):
            from_facelets(to_facelets(SOLVED)[:23])

    def test_rejects_swapped_stickers_on_one_cubelet(self):
        # URF's stickers sit at facelets 3 (U), 8 (R), 17 (F)
        f = list(to_facelets(SOLVED))
        f[3], f[8] = f[8], f[3]
        with pytest.raises((IllegalCubelet, IllegalTwist)):
            from_facelets(f)

    def test_rejects_single_twisted_corner(self):
        f = list(to_facelets(SOLVED))
        f[3], f[8], f[17] = f[17], f[3], f[8]
        with pytest.raises(IllegalTwist):
            from_facelets(f)

    def test_string_roundtrip(self):
        for s in random_states(13, 50):
            text = facelets_to_string(to_facelets(s))
            assert from_facelets(string_to_facelets(text)) == s

    def test_string_rejects_unknown_letters(self):
        with pytest.raises(IllegalColoring):
            string_to_facelets("X" * 24)


class TestNotation:
    def test_parse_basic(self):
        assert parse_moves("U F' R") == [Move.U, Move.F_PRIME, Move.R]

    def test_parse_empty(self):
        assert parse_moves("") == []

    def test_half_turns_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_moves("U2")
        assert err.value.position == 1
        with pytest.raises(ParseError) as err:
            parse_moves("U F' X")
        assert err.value.position == 3

    def test_format_parse_roundtrip(self):
        rng = np.random.default_rng(14)
        moves = list(Move)
        for _ in range(100):
            seq = [moves[i] for i in rng.integers(0, 12, size=int(rng.integers(0, 15)))]
            assert parse_moves(format_moves(seq)) == seq


class TestIsSolved:
    def test_solved(self):
        assert is_solved(SOLVED)

    def test_all_rotations_of_solved(self):
        for r in ROTATIONS:
            assert is_solved(rotate_state(SOLVED, r))

    def test_one_turn_is_not_solved(self):
        assert not is_solved(apply(SOLVED, Move.U))


class TestStateValidation:
    def test_rejects_non_permutation(self):
        with pytest.raises(CubeError):
            CubeletState((0,) * 8, (0,) * 8)

    def test_rejects_bad_twist_sum(self):
        with pytest.raises(IllegalTwist):
            CubeletState(tuple(range(8)), (1,) + (0,) * 7)

    def test_rejects_out_of_range_ori(self):
        with pytest.raises(CubeError):
            CubeletState(tuple(range(8)), (3,) + (0,) * 7)

    def test_canonical_rejects_moved_anchor(self):
        with pytest.raises(CubeError):
            CanonicalState((7, 1, 2, 3, 4, 5, 6, 0), (0,) * 8)

    def test_cross_class_equality(self):
        canonical = CanonicalState(SOLVED.perm, SOLVED.ori)
        assert canonical == SOLVED
        assert hash(canonical) == hash(SOLVED)


def _raw_state(perm, twists):
    return CubeletState(tuple(perm), twists + ((-sum(twists)) % 3,))


# uniform over legal raw states: any permutation, any seven twists, the
# eighth closing the sum
raw_states = st.builds(_raw_state, st.permutations(range(8)),
                       st.tuples(*[st.integers(0, 2)] * 7))
ranks = st.integers(0, N_STATES - 1)


class TestProperties:
    @given(ranks)
    def test_unrank_then_rank_is_identity(self, r):
        assert rank(unrank(r)) == r

    @given(raw_states)
    def test_rank_then_unrank_is_identity(self, s):
        c = canonicalize(s)
        assert unrank(rank(c)) == c

    @given(raw_states)
    def test_facelet_roundtrip(self, s):
        assert from_facelets(to_facelets(s)) == s

    @given(raw_states, st.lists(st.sampled_from(list(Move)), max_size=20))
    def test_sequence_then_inverse_is_identity(self, s, seq):
        assert apply_seq(s, seq + inverse_seq(seq)) == s

    @given(ranks)
    def test_quotient_equivariance(self, r):
        c = unrank(r)
        for m in Move:
            assert canonicalize(apply(c, m)) == apply_generalized(c, reduce_move(m))

    @given(raw_states)
    def test_canonicalize_constant_over_rotations(self, s):
        assert {canonicalize(rotate_state(s, rot)) for rot in ROTATIONS} == {canonicalize(s)}

    @given(raw_states, st.integers(0, 23), st.integers(1, 5))
    def test_recoloured_sticker_is_illegal_coloring(self, s, i, shift):
        f = list(to_facelets(s))
        colors = list(Color)
        f[i] = colors[(colors.index(f[i]) + shift) % 6]
        with pytest.raises(IllegalColoring):
            from_facelets(f)

    @given(raw_states, st.sampled_from(CORNER_STICKERS), st.integers(0, 2))
    def test_swapped_corner_stickers_are_illegal_cubelet(self, s, corner, keep):
        # swapping two stickers mirrors the corner, which no cubelet matches
        f = list(to_facelets(s))
        i, j = (k for n, k in enumerate(corner) if n != keep)
        f[i], f[j] = f[j], f[i]
        with pytest.raises(IllegalCubelet):
            from_facelets(f)

    @given(raw_states, st.sampled_from(CORNER_STICKERS), st.booleans())
    def test_cycled_corner_stickers_are_illegal_twist(self, s, corner, clockwise):
        # cycling one corner's stickers twists that cubelet alone
        f = list(to_facelets(s))
        a, b, c = corner
        f[a], f[b], f[c] = (f[c], f[a], f[b]) if clockwise else (f[b], f[c], f[a])
        with pytest.raises(IllegalTwist):
            from_facelets(f)
