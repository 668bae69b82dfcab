import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdforge.gf2 import (
    BitMatrix,
    BitVector,
    mat_apply,
    nullspace_basis,
    parse_matrix_text,
    rank,
    rref,
    solve_particular,
)

BV = BitVector.from_string

PARITY_G = BitMatrix.from_strings(["1001", "0101", "0011"])
HAMMING_G = BitMatrix.from_strings(["1000110", "0100111", "0010101", "0001011"])
HAMMING_H = BitMatrix.from_strings(["1110100", "1101010", "0111001"])


# Property tests draw matrices of at most 6 rows and 8 columns, so every
# oracle below can enumerate all 2^rows row sums or all 2^cols vectors.
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    """A random rows x cols BitMatrix; rows may be dependent or zero."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(0, 1), min_size=cols, max_size=cols).map(tuple)
    return BitMatrix(tuple(map(BitVector, draw(st.lists(row, min_size=rows, max_size=rows)))))


def span(rows):
    """Oracle: the set of all sums of the given rows, as strings."""
    words = {"0" * len(rows[0])}
    for row in rows:
        words |= {str(BV(w) + row) for w in words}
    return words


def all_vectors(n):
    return [BV(format(m, f"0{n}b")) for m in range(2**n)]


class TestBitVector:
    def test_add_examples(self):
        assert BV("0101") + BV("0110") == BV("0011")
        assert BV("0011110") + BV("1000001") == BV("1011111")

    def test_add_self_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = BitVector.from_ints(rng.integers(0, 2, size=8))
            assert (x + x).is_zero()

    def test_add_associative_commutative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = (BitVector.from_ints(rng.integers(0, 2, size=6)) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)

    def test_add_length_mismatch(self):
        with pytest.raises(ValueError):
            BV("01") + BV("011")

    def test_dot_examples(self):
        assert BV("1111").dot(BV("1010")) == 0
        assert BitVector.zeros(5).dot(BV("10110")) == 0

    def test_dot_matches_parity_of_and(self):
        a, b = BV("1110100"), BV("0001011")
        brute = sum(x & y for x, y in zip(a, b)) % 2
        assert a.dot(b) == brute
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = BitVector.from_ints(rng.integers(0, 2, size=9))
            b = BitVector.from_ints(rng.integers(0, 2, size=9))
            assert a.dot(b) == sum(x & y for x, y in zip(a, b)) % 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BitVector(())
        with pytest.raises(ValueError):
            BitVector((0, 2))

    def test_slicing_and_str(self):
        v = BV("10110")
        assert str(v) == "10110"
        assert v[0] == 1 and v[4] == 0
        assert v[:3] == BV("101")


class TestMatApply:
    def test_left_encoding_example(self):
        assert mat_apply(PARITY_G, BV("011"), side="left") == BV("0110")

    def test_right_syndrome_example(self):
        h = BitMatrix.from_strings(["1111"])
        assert mat_apply(h, BV("0111"), side="right") == BV("1")

    def test_identity(self):
        eye = BitMatrix.identity(5)
        v = BV("10101")
        assert mat_apply(eye, v, side="right") == v
        assert mat_apply(eye, v, side="left") == v

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_apply(PARITY_G, BV("0110"), side="left")
        with pytest.raises(ValueError):
            mat_apply(PARITY_G, BV("011"), side="right")
        with pytest.raises(ValueError):
            mat_apply(PARITY_G, BV("011"), side="sideways")


def span_size(rows):
    """Oracle: number of distinct vectors in the row span, by enumeration."""
    seen = set()
    k = len(rows)
    for m in range(2**k):
        acc = BitVector.zeros(len(rows[0]))
        for i in range(k):
            if (m >> i) & 1:
                acc = acc + rows[i]
        seen.add(acc)
    return len(seen)


class TestRref:
    def test_hamming_rank(self):
        assert rref(HAMMING_G).rank == 4

    def test_zero_matrix(self):
        zero = BitMatrix.from_strings(["0000", "0000"])
        assert rref(zero).rank == 0
        assert rref(zero).pivot_cols == ()

    def test_rank_matches_span_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows = tuple(BitVector.from_ints(rng.integers(0, 2, size=8)) for _ in range(5))
            m = BitMatrix(rows)
            assert 2 ** rank(m) == span_size(rows)

    def test_row_space_preserved(self):
        reduced = rref(HAMMING_G).matrix
        assert span_size(reduced.rows) == span_size(HAMMING_G.rows)

    @PROPERTY
    @given(matrices())
    def test_row_space_preserved_property(self, m):
        result = rref(m)
        assert span(result.matrix.rows) == span(m.rows)
        assert 2**result.rank == len(span(m.rows))
        # Nonzero rows first, each with a 1 at its pivot and 0 above and below.
        rows = result.matrix.rows
        assert all(r.is_zero() for r in rows[result.rank:])
        for i, col in enumerate(result.pivot_cols):
            assert [r[col] for r in rows] == [int(j == i) for j in range(len(rows))]


class TestNullspace:
    def test_parity_generator(self):
        basis = nullspace_basis(PARITY_G)
        assert len(basis) == 1
        spanned = {BitVector.zeros(4), basis[0]}
        assert spanned == {BV("0000"), BV("1111")}

    def test_full_rank_square(self):
        assert nullspace_basis(BitMatrix.identity(4)) == []

    def test_hamming_generator_against_exhaustive(self):
        basis = nullspace_basis(HAMMING_G)
        assert len(basis) == 3
        # Oracle: every length-7 word with G.v^T = 0, by direct check.
        exhaustive = {
            v for v in all_vectors(7)
            if mat_apply(HAMMING_G, v, side="right").is_zero()
        }
        assert len(exhaustive) == 8
        spanned = set()
        for m in range(8):
            acc = BitVector.zeros(7)
            for i in range(3):
                if (m >> i) & 1:
                    acc = acc + basis[i]
            spanned.add(acc)
        assert spanned == exhaustive

    def test_rank_nullity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = BitMatrix.from_numpy(rng.integers(0, 2, size=(4, 7)))
            assert rank(m) + len(nullspace_basis(m)) == 7

    def test_members_annihilated(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = BitMatrix.from_numpy(rng.integers(0, 2, size=(3, 6)))
            for v in nullspace_basis(m):
                assert mat_apply(m, v, side="right").is_zero()


class TestSolveParticular:
    def test_syndrome_preimage(self):
        s = BV("110")
        x = solve_particular(HAMMING_H, s)
        assert x is not None
        assert mat_apply(HAMMING_H, x, side="right") == s

    def test_zero_target(self):
        assert solve_particular(HAMMING_H, BV("000")) == BitVector.zeros(7)

    def test_inconsistent(self):
        m = BitMatrix.from_strings(["1100", "1100"])
        assert solve_particular(m, BV("01")) is None

    def test_deterministic(self):
        s = BV("101")
        assert solve_particular(HAMMING_H, s) == solve_particular(HAMMING_H, s)

    def test_length_check(self):
        with pytest.raises(ValueError):
            solve_particular(HAMMING_H, BV("1101"))

    @PROPERTY
    @given(matrices(), st.data())
    def test_solves_every_consistent_system(self, m, data):
        """Against all 2^cols candidates: a reachable target gets a true
        solution and an unreachable one gets None."""
        reachable = {mat_apply(m, x, side="right") for x in all_vectors(m.num_cols)}
        x0 = BitVector(tuple(data.draw(st.lists(
            st.integers(0, 1), min_size=m.num_cols, max_size=m.num_cols))))
        other = BitVector(tuple(data.draw(st.lists(
            st.integers(0, 1), min_size=m.num_rows, max_size=m.num_rows))))
        for target in (mat_apply(m, x0, side="right"), other):
            x = solve_particular(m, target)
            if target in reachable:
                assert x is not None and mat_apply(m, x, side="right") == target
            else:
                assert x is None


class TestCharacterSumIdentity:
    def test_exhaustive_small_lengths(self):
        # sum over all v of (-1)^(v.w) is 2^k for w = 0 and 0 otherwise.
        for k in range(1, 13):
            vectors = np.array(
                [[(m >> (k - 1 - i)) & 1 for i in range(k)] for m in range(2**k)],
                dtype=np.uint8,
            )
            parities = (vectors @ vectors.T) % 2  # [v, w] -> v.w
            sums = (1 - 2 * parities.astype(np.int64)).sum(axis=0)
            assert sums[0] == 2**k
            assert not sums[1:].any()


class TestMatrixText:
    def test_round_trip(self):
        text = str(HAMMING_G) + "\n"
        assert parse_matrix_text(text) == HAMMING_G

    @PROPERTY
    @given(matrices(max_rows=8, max_cols=12), matrices())
    def test_print_parse_round_trip(self, m, trailing):
        text = str(m)
        assert parse_matrix_text(text) == m
        assert str(parse_matrix_text(f"  {text}\n")) == text
        # A blank line ends the matrix; what follows it is ignored.
        assert parse_matrix_text(f"{text}\n\n{trailing}\n") == m

    def test_blank_line_terminates(self):
        assert parse_matrix_text("11\n01\n\n10\n") == BitMatrix.from_strings(["11", "01"])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_matrix_text("10a1\n")
        with pytest.raises(ValueError):
            parse_matrix_text("\n")
