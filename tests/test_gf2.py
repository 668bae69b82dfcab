from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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
    return BitMatrix(tuple(map(BitVector.from_ints, draw(st.lists(row, min_size=rows, max_size=rows)))))


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
            BitVector(0, 0)
        with pytest.raises(ValueError):
            BitVector(4, 2)

    def test_slicing_and_str(self):
        v = BV("10110")
        assert str(v) == "10110"
        assert v[0] == 1 and v[4] == 0
        assert v[:3] == BV("101")

    @pytest.mark.parametrize("form", [
        lambda raw: raw > 0,
        lambda raw: raw.astype(np.uint8),
        lambda raw: raw.astype(np.int8),
        lambda raw: raw,
        lambda raw: raw.astype(np.uint64),
        lambda raw: raw.astype(float),
        lambda raw: raw.tolist(),
        lambda raw: (int(x) for x in raw),
    ], ids=["bool", "uint8", "int8", "int64", "uint64", "float", "list", "generator"])
    def test_from_ints_matches_the_int64_mod_2_oracle(self, form):
        """from_ints packs the low bits of an array directly; its value must be
        that of the int64 % 2 form for every length, including the ones
        that leave a partial last byte, and for negative entries."""

        def oracle(values):
            if not isinstance(values, np.ndarray):
                values = list(values)
            bits = np.asarray(values, dtype=np.int64) % 2
            return BitVector(int("".join(map(str, bits)), 2), len(bits))

        rng = np.random.default_rng(14)
        for n in range(1, 71):
            raw = rng.integers(-300, 300, size=n)
            assert BitVector.from_ints(form(raw)) == oracle(form(raw))

    @pytest.mark.parametrize("empty", [[], np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64),
                                       np.zeros(0), iter(())])
    def test_from_ints_rejects_empty_input(self, empty):
        with pytest.raises(ValueError, match="at least one bit"):
            BitVector.from_ints(empty)


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
        x0 = BitVector.from_ints(data.draw(st.lists(
            st.integers(0, 1), min_size=m.num_cols, max_size=m.num_cols)))
        other = BitVector.from_ints(data.draw(st.lists(
            st.integers(0, 1), min_size=m.num_rows, max_size=m.num_rows)))
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


# --- Oracles ---------------------------------------------------------------
# The tuple-backed BitVector and the numpy element-by-element elimination
# that BitVector(value, n) and the row-int rref replaced. The properties
# below pin the int core to them exactly, at word-boundary sizes too.


@dataclass(frozen=True)
class TupleBitVector:
    """Fixed-length vector over {0, 1}, one tuple entry per bit."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("BitVector must contain at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("BitVector entries must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "TupleBitVector":
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "TupleBitVector":
        return cls(tuple(int(v) % 2 for v in values))

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TupleBitVector(self.bits[index])
        return self.bits[index]

    def __add__(self, other: "TupleBitVector") -> "TupleBitVector":
        if len(other) != len(self):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return TupleBitVector(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def dot(self, other: "TupleBitVector") -> int:
        if len(other) != len(self):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return sum(a & b for a, b in zip(self.bits, other.bits)) % 2

    def weight(self) -> int:
        return sum(self.bits)

    def is_zero(self) -> bool:
        return not any(self.bits)

    def to_numpy(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def numpy_rref(mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Elimination on a uint8 array with per-element reads."""
    mat = mat.copy()
    m, n = mat.shape
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(n):
        found = -1
        for row in range(pivot_row, m):
            if mat[row, col] == 1:
                found = row
                break
        if found == -1:
            continue
        if found != pivot_row:
            mat[[pivot_row, found]] = mat[[found, pivot_row]]
        for row in range(m):
            if row != pivot_row and mat[row, col] == 1:
                mat[row, :] ^= mat[pivot_row, :]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == m:
            break
    return mat, tuple(pivot_cols)


def numpy_nullspace(mat: np.ndarray) -> list[np.ndarray]:
    reduced, pivots = numpy_rref(mat)
    n = mat.shape[1]
    basis = []
    for free in [c for c in range(n) if c not in set(pivots)]:
        vec = np.zeros(n, dtype=np.uint8)
        vec[free] = 1
        for row, col in enumerate(pivots):
            if reduced[row, free] == 1:
                vec[col] = 1
        basis.append(vec)
    return basis


def numpy_solve(mat: np.ndarray, target: np.ndarray) -> Optional[np.ndarray]:
    n = mat.shape[1]
    reduced, pivots = numpy_rref(np.concatenate([mat, target.reshape(-1, 1)], axis=1))
    if n in pivots:
        return None
    solution = np.zeros(n, dtype=np.uint8)
    for row, col in enumerate(pivots):
        solution[col] = reduced[row, n]
    return solution


def text(bits: np.ndarray) -> str:
    """A 0/1 array as its printed bit string."""
    return (np.asarray(bits, dtype=np.uint8) + ord("0")).tobytes().decode()


# Lengths on both sides of the 64-bit word and byte boundaries, up to the
# 1,000 bits of a std-eve raw block.
LENGTHS = (1, 2, 7, 8, 9, 63, 64, 65, 130, 1000)
SIZES = st.sampled_from(LENGTHS)
ORACLE = settings(max_examples=80, derandomize=True, deadline=None)
ORACLE_PER_WIDTH = settings(max_examples=15, derandomize=True, deadline=None)


def bit_tuples(n):
    return st.integers(0, 2**n - 1).map(lambda v: tuple(map(int, format(v, f"0{n}b"))))


@st.composite
def vector_pairs(draw):
    n = draw(SIZES)
    return draw(bit_tuples(n)), draw(bit_tuples(n))


@st.composite
def wide_matrices(draw, cols, max_rows=8):
    """A uint8 array of at most max_rows rows and the given width; rows
    are random, sparse, or sums of two earlier rows, so ranks vary."""
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(("random", "sparse", "sum")))
        if kind == "random" or not rows:
            rows.append(draw(bit_tuples(cols)))
        elif kind == "sparse":
            ones = set(draw(st.lists(st.integers(0, cols - 1), max_size=3)))
            rows.append(tuple(int(i in ones) for i in range(cols)))
        else:
            a, b = (rows[draw(st.integers(0, len(rows) - 1))] for _ in range(2))
            rows.append(tuple(x ^ y for x, y in zip(a, b)))
    return np.array(rows, dtype=np.uint8)


class TestBitVectorAgainstTupleOracle:
    @ORACLE
    @given(vector_pairs(), st.data())
    def test_every_operation_matches(self, pair, data):
        a_bits, b_bits = pair
        n = len(a_bits)
        a, b = BitVector.from_ints(a_bits), BitVector.from_ints(b_bits)
        old_a, old_b = TupleBitVector(a_bits), TupleBitVector(b_bits)
        assert len(a) == len(old_a) == n
        assert tuple(a) == old_a.bits and list(iter(b)) == list(old_b)
        assert str(a) == str(old_a) and str(a + b) == str(old_a + old_b)
        assert a.dot(b) == old_a.dot(old_b)
        assert a.weight() == old_a.weight() and a.is_zero() == old_a.is_zero()
        assert np.array_equal(a.to_numpy(), old_a.to_numpy())
        assert a.to_numpy().dtype == np.uint8
        # The value spells the printed form: it is the basis-state index.
        assert a.value == int(str(old_a), 2)
        assert repr(a) == f"BitVector('{old_a}')"

        for i in data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=5)):
            assert a[i] == old_a[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                a[i]
        start, stop = (data.draw(st.one_of(st.none(), st.integers(-n - 2, n + 2))) for _ in range(2))
        step = data.draw(st.sampled_from((None, 1, 2, 3, -1, -2)))
        if old_a.bits[start:stop:step]:
            assert str(a[start:stop:step]) == str(old_a[start:stop:step])
        else:
            with pytest.raises(ValueError):
                a[start:stop:step]

    @ORACLE
    @given(vector_pairs())
    def test_construction_round_trips_eq_and_hash(self, pair):
        a_bits, b_bits = pair
        a = BitVector.from_ints(a_bits)
        assert BitVector.from_string(str(TupleBitVector(a_bits))) == a
        assert BitVector.from_ints(np.array(a_bits)) == a
        assert BitVector.from_ints(np.array(a_bits, dtype=np.uint8)) == a
        assert BitVector.from_ints(iter(a_bits)) == a
        assert BitVector(a.value, a.n) == a and hash(BitVector(a.value, a.n)) == hash(a)
        # from_ints reduces every value mod 2, as the oracle does.
        shifted = [v + 2 * k - 4 for k, v in enumerate(a_bits)]
        assert str(BitVector.from_ints(shifted)) == str(TupleBitVector.from_ints(shifted))
        assert str(BitVector.from_ints(np.array(shifted))) == str(TupleBitVector.from_ints(shifted))
        b = BitVector.from_ints(b_bits)
        assert (a == b) == (TupleBitVector(a_bits) == TupleBitVector(b_bits))
        assert len({a, b, BitVector.from_string(str(b))}) == len({a_bits, b_bits})
        assert BitVector.zeros(a.n) == BitVector.from_ints([0] * a.n)
        if a.n > 1:
            with pytest.raises(ValueError):
                a + BitVector.zeros(a.n - 1)
            with pytest.raises(ValueError):
                a.dot(BitVector.zeros(a.n - 1))

    def test_invalid_construction(self):
        for value, n in ((0, 0), (2, 1), (-1, 3), (1 << 64, 64), (1 << 1000, 1000)):
            with pytest.raises(ValueError):
                BitVector(value, n)
        assert BitVector((1 << 65) - 1, 65).weight() == 65
        for bad in ("", "012", "1 0", "+1", "1_0", "0b1"):
            with pytest.raises(ValueError):
                BitVector.from_string(bad)
        with pytest.raises(ValueError):
            BitVector.from_ints([])


class TestEliminationAgainstNumpyOracle:
    @pytest.mark.parametrize("cols", LENGTHS)
    @ORACLE_PER_WIDTH
    @given(data=st.data())
    def test_rref_and_nullspace_match(self, cols, data):
        arr = data.draw(wide_matrices(cols))
        m = BitMatrix.from_numpy(arr)
        assert [str(r) for r in m.rows] == [text(row) for row in arr]
        assert np.array_equal(m.to_numpy(), arr)
        assert [str(r) for r in m.transpose().rows] == [text(col) for col in arr.T]
        result = rref(m)
        reduced, pivots = numpy_rref(arr)
        assert result.pivot_cols == pivots and result.rank == len(pivots)
        assert [str(r) for r in result.matrix.rows] == [text(row) for row in reduced]
        assert [str(v) for v in nullspace_basis(m)] == [text(v) for v in numpy_nullspace(arr)]

    @pytest.mark.parametrize("cols", LENGTHS)
    @ORACLE_PER_WIDTH
    @given(data=st.data())
    def test_products_and_solutions_match(self, cols, data):
        arr = data.draw(wide_matrices(cols))
        m = BitMatrix.from_numpy(arr)
        rows, cols = arr.shape
        x = np.array(data.draw(bit_tuples(cols)), dtype=np.uint8)
        v = np.array(data.draw(bit_tuples(rows)), dtype=np.uint8)
        consistent = arr.astype(np.int64) @ x % 2
        assert str(mat_apply(m, BitVector.from_ints(x), side="right")) == text(consistent)
        assert str(mat_apply(m, BitVector.from_ints(v), side="left")) == text(v @ arr.astype(np.int64) % 2)
        for target in (consistent, v):
            got = solve_particular(m, BitVector.from_ints(target))
            want = numpy_solve(arr, target.astype(np.uint8))
            assert (got is None) == (want is None)
            if want is not None:
                assert str(got) == text(want)

    def test_identity_matches_numpy(self):
        for n in (1, 64, 65, 130):
            assert np.array_equal(BitMatrix.identity(n).to_numpy(), np.eye(n, dtype=np.uint8))
