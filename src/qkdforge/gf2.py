"""Exact linear algebra over the binary field GF(2).

A bit string is one Python int plus a length: BitVector(value, n) is the
n-bit string that value spells in binary. Bit position 1, the leftmost
printed bit, is the most significant bit, so value is also the string's
basis-state index in qsim. Sums are XOR, inner products the parity of AND,
and row reduction works on the row ints of a matrix. Vectors and matrices
are immutable values, safe to share across threads and to use as dict keys.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

_UNPACK_CHUNK = 4096


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector over {0, 1}: the n-bit string spelled by value,
    with position 1 as its most significant bit."""

    value: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("BitVector must contain at least one bit")
        if not 0 <= self.value < 1 << self.n:
            raise ValueError(f"BitVector value {self.value} does not fit in {self.n} bits")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if text.strip("01"):
            raise ValueError(f"BitVector entries must be 0 or 1, got {text!r}")
        return cls(int("0" + text, 2), len(text))

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "BitVector":
        """Each value mod 2, in order; a numpy array packs in one step."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        bits = np.asarray(values, dtype=np.int64) % 2
        value = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)
        return cls(value, len(bits))

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(0, n)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return map(int, str(self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitVector.from_string(str(self)[index])
        index = operator.index(index)
        if not -self.n <= index < self.n:
            raise IndexError(f"bit index {index} out of range for length {self.n}")
        return (self.value >> (self.n - 1 - index % self.n)) & 1

    def __add__(self, other: "BitVector") -> "BitVector":
        """Componentwise XOR; each vector is its own additive inverse."""
        if not isinstance(other, BitVector):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.value ^ other.value, self.n)

    def dot(self, other: "BitVector") -> int:
        """Mod-2 inner product."""
        if other.n != self.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return (self.value & other.value).bit_count() & 1

    def weight(self) -> int:
        return self.value.bit_count()

    def is_zero(self) -> bool:
        return self.value == 0

    def to_numpy(self) -> np.ndarray:
        return BitMatrix((self,)).to_numpy()[0]

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __repr__(self) -> str:
        return f"BitVector('{self}')"


@dataclass(frozen=True)
class BitMatrix:
    """Rectangular {0, 1} matrix stored as a tuple of rows."""

    rows: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if len(self.rows) == 0:
            raise ValueError("BitMatrix must contain at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("BitMatrix rows must all have the same length")

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "BitMatrix":
        return cls(tuple(BitVector.from_string(line) for line in lines))

    @classmethod
    def from_numpy(cls, array: np.ndarray) -> "BitMatrix":
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(tuple(BitVector.from_ints(row) for row in arr))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(BitVector(1 << (n - 1 - i), n) for i in range(n)))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.rows[0])

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_strings("".join(col) for col in zip(*map(str, self.rows)))

    def to_numpy(self) -> np.ndarray:
        n, width = self.num_cols, -(-self.num_cols // 8)
        padded = b"".join((r.value << (-n % 8)).to_bytes(width, "big") for r in self.rows)
        rows = np.frombuffer(padded, dtype=np.uint8).reshape(self.num_rows, width)
        return np.unpackbits(rows, axis=1, count=n)

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rows)

    def __repr__(self) -> str:
        return f"BitMatrix({self.num_rows}x{self.num_cols})"


def mat_apply(matrix: BitMatrix, vector: BitVector, side: str = "left") -> BitVector:
    """Mod-2 matrix-vector product.

    Args:
        matrix: The matrix M.
        vector: The vector v.
        side: "left" computes the row vector v.M (requires |v| = rows);
            "right" computes the column M.v^T read back as a vector
            (requires |v| = cols).

    Returns:
        The product as a BitVector.
    """
    if side == "left":
        if len(vector) != matrix.num_rows:
            raise ValueError(
                f"left apply needs |v| = rows: {len(vector)} vs {matrix.num_rows}"
            )
        value = 0
        for bit, row in zip(vector, matrix.rows):
            if bit:
                value ^= row.value
        return BitVector(value, matrix.num_cols)
    if side == "right":
        if len(vector) != matrix.num_cols:
            raise ValueError(
                f"right apply needs |v| = cols: {len(vector)} vs {matrix.num_cols}"
            )
        value = 0
        for row in matrix.rows:
            value = (value << 1) | ((row.value & vector.value).bit_count() & 1)
        return BitVector(value, matrix.num_rows)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack an (m, n) 0/1 array into (m, ceil(n/64)) uint64 words.

    Only XOR, AND and popcount are meaningful on the words; unpack_vectors
    inverts the packing."""
    m, n = bits.shape
    padded = np.zeros((m, 8 * -(-n // 64)), dtype=np.uint8)
    padded[:, : -(-n // 8)] = np.packbits(bits, axis=1)
    return padded.view(np.uint64)


def unpack_vectors(words: np.ndarray, n: int) -> Iterator[BitVector]:
    """The BitVector of each row that pack_rows packed into `words`: a
    row's bytes, read as one big-endian int, are its value followed by
    the zero padding. Rows are copied _UNPACK_CHUNK at a time, so a large
    array is never copied whole."""
    width = 8 * words.shape[1]
    padding = 8 * width - n
    for start in range(0, len(words), _UNPACK_CHUNK):
        data = words[start : start + _UNPACK_CHUNK].tobytes()
        for i in range(0, len(data), width):
            yield BitVector(int.from_bytes(data[i : i + width], "big") >> padding, n)


@dataclass(frozen=True)
class RrefResult:
    matrix: BitMatrix
    rank: int
    pivot_cols: tuple[int, ...]


def rref(matrix: BitMatrix) -> RrefResult:
    """Reduced row-echelon form over GF(2).

    Gaussian elimination with XOR on the row ints: each column's pivot
    is the first row at or below the pivot row with a 1 there, swapped
    up. The row space is preserved and the rank is the number of
    nonzero rows.
    """
    n = matrix.num_cols
    rows = [r.value for r in matrix.rows]
    pivot_cols: list[int] = []
    for col in range(n):
        top = len(pivot_cols)
        bit = 1 << (n - 1 - col)
        found = next((i for i in range(top, len(rows)) if rows[i] & bit), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        pivot = rows[top]
        for i, row in enumerate(rows):
            if i != top and row & bit:
                rows[i] = row ^ pivot
        pivot_cols.append(col)
    return RrefResult(
        matrix=BitMatrix(tuple(BitVector(row, n) for row in rows)),
        rank=len(pivot_cols),
        pivot_cols=tuple(pivot_cols),
    )


def rank(matrix: BitMatrix) -> int:
    return rref(matrix).rank


def nullspace_basis(matrix: BitMatrix) -> list[BitVector]:
    """Basis of {v : M.v^T = 0}, one vector per free column.

    Returns cols - rank independent vectors spanning the full nullspace;
    empty for a full-column-rank matrix.
    """
    reduced = rref(matrix)
    n = matrix.num_cols
    pivots = reduced.pivot_cols
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        free_bit = 1 << (n - 1 - free)
        value = free_bit
        for row, col in zip(reduced.matrix.rows, pivots):
            if row.value & free_bit:
                value |= 1 << (n - 1 - col)
        basis.append(BitVector(value, n))
    return basis


def solve_particular(matrix: BitMatrix, target: BitVector) -> Optional[BitVector]:
    """Deterministic particular solution of M.x^T = s over GF(2).

    Free variables are fixed to 0, so the same (M, s) always yields the
    same x. Returns None when the system is inconsistent.
    """
    if len(target) != matrix.num_rows:
        raise ValueError(
            f"target length must equal rows: {len(target)} vs {matrix.num_rows}"
        )
    n = matrix.num_cols
    augmented = BitMatrix(
        tuple(BitVector(row.value << 1 | bit, n + 1) for row, bit in zip(matrix.rows, target))
    )
    reduced = rref(augmented)
    if n in reduced.pivot_cols:
        return None
    value = 0
    for row, col in zip(reduced.matrix.rows, reduced.pivot_cols):
        if row.value & 1:
            value |= 1 << (n - 1 - col)
    return BitVector(value, n)


def parse_matrix_text(text: str) -> BitMatrix:
    """Parse the plain-text matrix format: one row of '0'/'1' characters
    per line, no separators; a blank line (or end of input) terminates."""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            break
        if any(c not in "01" for c in line):
            raise ValueError(f"matrix rows may only contain 0/1: {line!r}")
        lines.append(line)
    if not lines:
        raise ValueError("no matrix rows found")
    return BitMatrix.from_strings(lines)
