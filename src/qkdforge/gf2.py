"""Exact linear algebra over the binary field GF(2).

Vectors and matrices are immutable values: every operation returns a new
object, so they are safe to share across threads and to use as dict keys.
Bit position 1 is the leftmost bit of the printed form, and that ordering
carries through to qubit and basis-state indexing elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector over {0, 1}."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("BitVector must contain at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("BitVector entries must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "BitVector":
        return cls(tuple(int(v) % 2 for v in values))

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls((0,) * n)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitVector(self.bits[index])
        return self.bits[index]

    def __add__(self, other: "BitVector") -> "BitVector":
        """Componentwise XOR; each vector is its own additive inverse."""
        if not isinstance(other, BitVector):
            return NotImplemented
        if len(other) != len(self):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return BitVector(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def dot(self, other: "BitVector") -> int:
        """Mod-2 inner product."""
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
        arr = np.asarray(array, dtype=np.uint8) % 2
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(tuple(BitVector(tuple(int(v) for v in row)) for row in arr))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls.from_numpy(np.eye(n, dtype=np.uint8))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.rows[0])

    def row(self, i: int) -> BitVector:
        return self.rows[i]

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_numpy(self.to_numpy().T)

    def to_numpy(self) -> np.ndarray:
        return np.array([r.bits for r in self.rows], dtype=np.uint8)

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
    mat = matrix.to_numpy()
    vec = vector.to_numpy()
    if side == "left":
        if len(vector) != matrix.num_rows:
            raise ValueError(
                f"left apply needs |v| = rows: {len(vector)} vs {matrix.num_rows}"
            )
        product = (vec @ mat) % 2
    elif side == "right":
        if len(vector) != matrix.num_cols:
            raise ValueError(
                f"right apply needs |v| = cols: {len(vector)} vs {matrix.num_cols}"
            )
        product = (mat @ vec) % 2
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return BitVector(tuple(int(x) for x in product))


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack an (m, n) 0/1 array into (m, ceil(n/64)) uint64 words.

    Only XOR, AND and popcount are meaningful on the words; unpack_rows
    inverts the packing."""
    m, n = bits.shape
    padded = np.zeros((m, 8 * -(-n // 64)), dtype=np.uint8)
    padded[:, : -(-n // 8)] = np.packbits(bits, axis=1)
    return padded.view(np.uint64)


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """The (m, n) 0/1 uint8 array that pack_rows packed into `words`."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n)


@dataclass(frozen=True)
class RrefResult:
    matrix: BitMatrix
    rank: int
    pivot_cols: tuple[int, ...]


def rref(matrix: BitMatrix) -> RrefResult:
    """Reduced row-echelon form over GF(2).

    Gaussian elimination with XOR row operations; the row space is
    preserved and the rank is the number of nonzero rows.
    """
    mat = matrix.to_numpy().copy()
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
    return RrefResult(
        matrix=BitMatrix.from_numpy(mat),
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
    mat = reduced.matrix.to_numpy()
    n = matrix.num_cols
    pivots = reduced.pivot_cols
    free_cols = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for free in free_cols:
        vec = np.zeros(n, dtype=np.uint8)
        vec[free] = 1
        for row, col in enumerate(pivots):
            if mat[row, free] == 1:
                vec[col] = 1
        basis.append(BitVector(tuple(int(v) for v in vec)))
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
    augmented = np.concatenate(
        [matrix.to_numpy(), target.to_numpy().reshape(-1, 1)], axis=1
    )
    reduced = rref(BitMatrix.from_numpy(augmented))
    if n in reduced.pivot_cols:
        return None
    mat = reduced.matrix.to_numpy()
    solution = np.zeros(n, dtype=np.uint8)
    for row, col in enumerate(reduced.pivot_cols):
        solution[col] = mat[row, n]
    return BitVector(tuple(int(v) for v in solution))


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
