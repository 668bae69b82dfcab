"""Classical [n, k] linear codes over GF(2).

Covers construction from a generator matrix, encoding, minimum-weight
capacities, dual codes, syndrome-table decoding, cosets, and the
coset-to-key map used for privacy amplification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .gf2 import BitMatrix, BitVector, mat_apply, nullspace_basis, rank, solve_particular

# Codeword enumeration is brute force; anything bigger than this is a
# usage error, not a job for this package.
ENUMERATION_LIMIT = 24


@dataclass(eq=False)
class LinearCode:
    """An [n, k] linear code with generator G (k x n) and check matrix H
    ((n-k) x n) satisfying H.G^T = 0."""

    n: int
    k: int
    G: BitMatrix
    H: BitMatrix

    @cached_property
    def weights(self) -> tuple[int, int, int]:
        """(d, u, t): minimum nonzero codeword weight, detect capacity
        d - 1, and correct capacity floor((d - 1) / 2)."""
        if self.k > ENUMERATION_LIMIT:
            raise ValueError(f"k={self.k} too large to enumerate codewords")
        d = min(c.weight() for c in self.codewords() if not c.is_zero())
        if d > self.n - self.k + 1:
            raise AssertionError("minimum weight exceeds the Singleton bound")
        return d, d - 1, (d - 1) // 2

    @property
    def distance(self) -> int:
        return self.weights[0]

    @property
    def detects(self) -> int:
        return self.weights[1]

    @property
    def corrects(self) -> int:
        return self.weights[2]

    def encode(self, message: BitVector) -> BitVector:
        """Encode a k-bit message as message . G."""
        if len(message) != self.k:
            raise ValueError(f"message length must be k={self.k}, got {len(message)}")
        return mat_apply(self.G, message, side="left")

    def syndrome(self, word: BitVector) -> BitVector:
        """H . word^T; zero exactly when the word is a codeword."""
        if len(word) != self.n:
            raise ValueError(f"word length must be n={self.n}, got {len(word)}")
        return mat_apply(self.H, word, side="right")

    def contains(self, word: BitVector) -> bool:
        return self.syndrome(word).is_zero()

    def codewords(self) -> Iterator[BitVector]:
        """All 2^k codewords, in message-integer order."""
        if self.k > ENUMERATION_LIMIT:
            raise ValueError(f"k={self.k} too large to enumerate codewords")
        for m in range(2**self.k):
            message = BitVector.from_string(format(m, f"0{self.k}b"))
            yield self.encode(message)

    def coset(self, x: BitVector) -> frozenset[BitVector]:
        """The set {x + c : c in C}, of size 2^k."""
        if len(x) != self.n:
            raise ValueError(f"coset shift must have length n={self.n}")
        return frozenset(x + c for c in self.codewords())

    def dual(self) -> "LinearCode":
        """The [n, n-k] code of all words orthogonal to every codeword;
        generated by H."""
        return code_from_generator(self.H)

    def char_sum(self, u: BitVector) -> int:
        """Sum over codewords c of (-1)^(c . u); equals |C| when u is in
        the dual and 0 otherwise."""
        if len(u) != self.n:
            raise ValueError(f"u must have length n={self.n}")
        return sum(-1 if c.dot(u) else 1 for c in self.codewords())

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}]"


def code_from_generator(G: BitMatrix) -> LinearCode:
    """Build a code from a generator matrix with independent rows.

    The check matrix is derived deterministically as the nullspace basis
    of G, and H.G^T = 0 is verified.
    """
    k, n = G.num_rows, G.num_cols
    if rank(G) != k:
        raise ValueError("generator rows are linearly dependent")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    H = BitMatrix(tuple(nullspace_basis(G)))
    return code_from_parts(G, H)


def code_from_parts(G: BitMatrix, H: BitMatrix) -> LinearCode:
    """Build a code from an explicit (G, H) pair, validating shapes,
    ranks, and H.G^T = 0."""
    k, n = G.num_rows, G.num_cols
    if H.num_cols != n or H.num_rows != n - k:
        raise ValueError(
            f"check matrix must be {(n - k)}x{n}, got {H.num_rows}x{H.num_cols}"
        )
    if rank(G) != k:
        raise ValueError("generator rows are linearly dependent")
    if rank(H) != n - k:
        raise ValueError("check matrix rows are linearly dependent")
    product = (H.to_numpy() @ G.to_numpy().T) % 2
    if product.any():
        raise ValueError("H.G^T is not the zero matrix")
    return LinearCode(n=n, k=k, G=G, H=H)


@dataclass(eq=False)
class SyndromeTable:
    """Injective map from syndrome to the unique error of weight <= t_max
    producing it. Always contains zero syndrome -> zero error."""

    t_max: int
    entries: dict[BitVector, BitVector]

    def __contains__(self, syndrome: BitVector) -> bool:
        return syndrome in self.entries

    def __getitem__(self, syndrome: BitVector) -> BitVector:
        return self.entries[syndrome]

    def __len__(self) -> int:
        return len(self.entries)


def syndrome_table_from_check(H: BitMatrix, t_max: int) -> SyndromeTable:
    """Tabulate H.e^T for every error e of weight <= t_max.

    Raises ValueError if two distinct errors collide on a syndrome, which
    means the requested t_max exceeds what this check matrix can resolve.
    """
    n = H.num_cols
    entries: dict[BitVector, BitVector] = {}
    for w in range(t_max + 1):
        for positions in itertools.combinations(range(n), w):
            bits = [0] * n
            for p in positions:
                bits[p] = 1
            error = BitVector(tuple(bits))
            syndrome = mat_apply(H, error, side="right")
            if syndrome in entries:
                raise ValueError(
                    f"syndrome collision between errors {entries[syndrome]} "
                    f"and {error}: t_max={t_max} exceeds the code's capacity"
                )
            entries[syndrome] = error
    return SyndromeTable(t_max=t_max, entries=entries)


def build_syndrome_table(code: LinearCode, t_max: int) -> SyndromeTable:
    """Syndrome/error table for all errors of weight <= t_max."""
    if t_max > code.corrects:
        raise ValueError(
            f"t_max={t_max} exceeds the code's correction capacity t={code.corrects}"
        )
    return syndrome_table_from_check(code.H, t_max)


@dataclass(frozen=True)
class DecodeResult:
    word: BitVector
    error: BitVector
    status: str  # "ok" | "detected_uncorrectable"


def decode(code: LinearCode, table: SyndromeTable, received: BitVector) -> DecodeResult:
    """Syndrome-table decoding.

    If the syndrome is in the table the matched error is removed and the
    result is a codeword; more errors than the table covers either
    miscorrect silently or, when the syndrome is absent, come back as
    detected_uncorrectable with the received word unchanged.
    """
    syndrome = code.syndrome(received)
    if syndrome in table:
        error = table[syndrome]
        return DecodeResult(word=received + error, error=error, status="ok")
    return DecodeResult(
        word=received, error=BitVector.zeros(code.n), status="detected_uncorrectable"
    )


@dataclass(eq=False)
class CosetQuotient:
    """Cosets of C2 inside C1 (C2 a subcode of C1), with a deterministic
    set of k1 - k2 extension rows completing a basis of C2 to one of C1.

    The induced map from key strings {0,1}^(k1-k2) to cosets is a
    bijection that both parties can derive from the public generators.
    """

    c1: LinearCode
    c2: LinearCode
    extension_rows: tuple[BitVector, ...]

    @property
    def key_length(self) -> int:
        return len(self.extension_rows)

    def representative(self, key: BitVector) -> BitVector:
        """Canonical coset representative for a key string: the sum of the
        extension rows selected by the key bits."""
        if len(key) != self.key_length:
            raise ValueError(f"key must have length {self.key_length}")
        rep = BitVector.zeros(self.c1.n)
        for bit, row in zip(key, self.extension_rows):
            if bit:
                rep = rep + row
        return rep

    def cosets(self) -> list[frozenset[BitVector]]:
        """All 2^(k1-k2) pairwise-disjoint cosets, in key order."""
        result = []
        width = max(self.key_length, 1)
        for m in range(2**self.key_length):
            key_bits = format(m, f"0{width}b")[-self.key_length :] if self.key_length else ""
            if self.key_length == 0:
                rep = BitVector.zeros(self.c1.n)
            else:
                rep = self.representative(BitVector.from_string(key_bits))
            result.append(self.c2.coset(rep))
        return result


def check_nested(c1: LinearCode, c2: LinearCode) -> None:
    """Raise ValueError unless C2 is a proper subcode of C1, which every
    CSS construction and every coset key needs."""
    if c2.n != c1.n:
        raise ValueError("C1 and C2 must have the same length")
    if c2.k >= c1.k:
        raise ValueError("C2 must be a proper subcode of C1 (k2 < k1)")
    for row in c2.G.rows:
        if not c1.contains(row):
            raise ValueError("C2 is not contained in C1")


def quotient(c1: LinearCode, c2: LinearCode) -> CosetQuotient:
    """Build the coset structure of C2 in C1.

    Extension rows are chosen by a greedy scan of C1's generator rows:
    keep each row that increases the rank of (C2 basis + kept rows), and
    stop once the rank reaches k1.
    """
    if c2.n != c1.n:
        raise ValueError("codes must have the same length")
    for row in c2.G.rows:
        if not c1.contains(row):
            raise ValueError("C2 is not a subcode of C1")
    if c2.k > c1.k:
        raise ValueError("C2 has larger dimension than C1")
    stack = list(c2.G.rows)
    current_rank = rank(BitMatrix(tuple(stack)))
    extension: list[BitVector] = []
    for row in c1.G.rows:
        if current_rank == c1.k:
            break
        candidate = BitMatrix(tuple(stack + [row]))
        if rank(candidate) > current_rank:
            stack.append(row)
            extension.append(row)
            current_rank += 1
    if current_rank != c1.k:
        raise AssertionError("failed to complete a basis of C1")
    return CosetQuotient(c1=c1, c2=c2, extension_rows=tuple(extension))


def key_from_coset(q: CosetQuotient, u: BitVector) -> BitVector:
    """Key string for the coset u + C2.

    Expresses u in the basis (C2 basis rows, extension rows) and returns
    the coefficients on the extension rows. Constant on each coset and
    bijective across cosets.
    """
    if q.key_length == 0:
        raise ValueError("quotient has no extension rows (C2 = C1)")
    if not q.c1.contains(u):
        raise ValueError(f"{u} is not a codeword of C1")
    basis = BitMatrix(tuple(q.c2.G.rows) + q.extension_rows)
    coefficients = solve_particular(basis.transpose(), u)
    if coefficients is None:
        raise AssertionError("codeword not expressible in the quotient basis")
    return coefficients[q.c2.k :]


# Built-in named codes. Generator and check matrices are pinned rather
# than re-derived so that printed syndrome tables are stable.
_NAMED = {
    "parity4": (
        ["1001", "0101", "0011"],
        ["1111"],
    ),
    "hamming74": (
        ["1000110", "0100111", "0010101", "0001011"],
        ["1110100", "1101010", "0111001"],
    ),
    "rep3": (
        ["111"],
        ["110", "011"],
    ),
}


def named_code(name: str) -> LinearCode:
    """Look up a built-in code: parity4, hamming74, or rep3."""
    try:
        g_rows, h_rows = _NAMED[name]
    except KeyError:
        raise ValueError(
            f"unknown code {name!r}; expected one of {sorted(_NAMED)}"
        ) from None
    return code_from_parts(BitMatrix.from_strings(g_rows), BitMatrix.from_strings(h_rows))


NAMED_CODE_NAMES = tuple(sorted(_NAMED))
