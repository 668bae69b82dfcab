"""Classical [n, k] linear codes over GF(2).

Covers construction from a generator matrix, encoding, minimum-weight
capacities, dual codes, syndrome-table decoding, cosets, and the
coset-to-key map used for privacy amplification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, wraps
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .gf2 import (
    BitMatrix,
    BitVector,
    mat_apply,
    nullspace_basis,
    pack_rows,
    rank,
    rref,
    unpack_vectors,
)

# Codeword enumeration is brute force over a packed 2^k-row array;
# anything bigger than this is a usage error, not a job for this package.
ENUMERATION_LIMIT = 24
# Entries of one syndrome table, an error of weight <= t_max each (README).
SYNDROME_TABLE_LIMIT = 1 << 18


def _kept_on_first_argument(build):
    """Memoize build(owner, ...) in owner.__dict__, keyed by the other arguments as passed."""

    @wraps(build)
    def cached(owner, *args, **kwargs):
        key = args + tuple(kwargs.items())
        memo = owner.__dict__.setdefault(f"_{build.__name__}", {})
        if key not in memo:
            memo[key] = build(owner, *args, **kwargs)
        return memo[key]

    return cached


@dataclass(eq=False, frozen=True)
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
        nonzero = self._packed_codewords()[1:]
        d = int(np.bitwise_count(nonzero).sum(axis=1, dtype=np.uint32).min())
        if d > self.n - self.k + 1:
            raise AssertionError("minimum weight exceeds the Singleton bound")
        return d, d - 1, (d - 1) // 2

    @property
    def distance(self) -> int:
        return self.weights[0]

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

    def _packed_codewords(self) -> np.ndarray:
        """All 2^k codewords packed by pack_rows, message m at row m.

        Doubling: after the last j rows of G, the first 2^j rows hold
        every combination of them, and XOR with the next row up fills
        the next 2^j. Row k-1 of G is the message's least significant
        bit, so the order matches encode(BitVector(m, k))."""
        if self.k > ENUMERATION_LIMIT:
            raise ValueError(
                f"cannot enumerate the 2^{self.k} codewords of {self!r}: "
                f"k is over ENUMERATION_LIMIT={ENUMERATION_LIMIT}"
            )
        rows = pack_rows(self.G.to_numpy())
        words = np.zeros((1 << self.k, rows.shape[1]), dtype=np.uint64)
        for j, row in enumerate(rows[::-1]):
            np.bitwise_xor(words[: 1 << j], row, out=words[1 << j : 2 << j])
        return words

    def codewords(self) -> Iterator[BitVector]:
        """All 2^k codewords, in message-integer order."""
        return unpack_vectors(self._packed_codewords(), self.n)

    def coset(self, x: BitVector) -> frozenset[BitVector]:
        """The set {x + c : c in C}, of size 2^k."""
        if len(x) != self.n:
            raise ValueError(f"coset shift must have length n={self.n}")
        shift = pack_rows(x.to_numpy()[np.newaxis])
        return frozenset(unpack_vectors(self._packed_codewords() ^ shift, self.n))

    @_kept_on_first_argument
    def dual(self) -> "LinearCode":
        """The [n, n-k] code of all words orthogonal to every codeword;
        generated by H. Built once per code."""
        return code_from_generator(self.H)

    def char_sum(self, u: BitVector) -> int:
        """Sum over codewords c of (-1)^(c . u); equals |C| when u is in
        the dual and 0 otherwise."""
        if len(u) != self.n:
            raise ValueError(f"u must have length n={self.n}")
        masked = self._packed_codewords() & pack_rows(u.to_numpy()[np.newaxis])
        odd = int((np.bitwise_count(masked).sum(axis=1) & 1).sum())
        return 2**self.k - 2 * odd

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}]"


def code_from_generator(G: BitMatrix) -> LinearCode:
    """Build a code from a generator matrix with independent rows.

    One elimination gives both the rank and the check matrix, the
    nullspace basis of G. That basis has one vector per free column, so
    its rows are independent and H.G^T = 0 holds by construction.
    """
    k, n = G.num_rows, G.num_cols
    basis = nullspace_basis(G)
    if n - len(basis) != k:
        raise ValueError("generator rows are linearly dependent")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    return LinearCode(n=n, k=k, G=G, H=BitMatrix(tuple(basis)))


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
    if any(h.dot(g) for h in H.rows for g in G.rows):
        raise ValueError("H.G^T is not the zero matrix")
    return LinearCode(n=n, k=k, G=G, H=H)


def check_table_budget(n: int, t_max: int) -> None:
    """Raise ValueError if sum_{w <= t_max} C(n, w), the errors a table
    holds, exceeds SYNDROME_TABLE_LIMIT; the sum stops once it does."""
    total, count = 0, 1
    for w in range(t_max + 1):
        total += count  # count = C(n, w)
        if total > SYNDROME_TABLE_LIMIT:
            raise ValueError(
                f"a syndrome table for t_max={t_max} on {n} bits needs at least {total} "
                f"entries (the errors of weight <= {w}), over the limit {SYNDROME_TABLE_LIMIT}"
            )
        count = count * (n - w) // (w + 1)


@_kept_on_first_argument
def syndrome_table_from_check(H: BitMatrix, t_max: int) -> Mapping[BitVector, BitVector]:
    """Map H.e^T to e, read-only, for every error e of weight <= t_max, once per H.

    Raises ValueError for a negative t_max or a table over
    SYNDROME_TABLE_LIMIT entries, both before any work, and if two
    distinct errors collide on a syndrome, which means the requested
    t_max exceeds what this check matrix can resolve.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    n = H.num_cols
    check_table_budget(n, t_max)
    entries: dict[BitVector, BitVector] = {}
    for w in range(t_max + 1):
        for positions in itertools.combinations(range(n), w):
            error = BitVector(sum(1 << (n - 1 - p) for p in positions), n)
            syndrome = mat_apply(H, error, side="right")
            if syndrome in entries:
                raise ValueError(
                    f"syndrome collision between errors {entries[syndrome]} "
                    f"and {error}: t_max={t_max} exceeds the code's capacity"
                )
            entries[syndrome] = error
    return MappingProxyType(entries)


def build_syndrome_table(code: LinearCode, t_max: int) -> Mapping[BitVector, BitVector]:
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


def decode(
    code: LinearCode, table: Mapping[BitVector, BitVector], received: BitVector
) -> DecodeResult:
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


@dataclass(eq=False, frozen=True)
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
        return mat_apply(BitMatrix(self.extension_rows), key, side="left")

    def cosets(self) -> list[frozenset[BitVector]]:
        """All 2^(k1-k2) pairwise-disjoint cosets, in key order."""
        if self.key_length == 0:
            return [self.c2.coset(BitVector.zeros(self.c1.n))]
        return [
            self.c2.coset(self.representative(BitVector(m, self.key_length)))
            for m in range(2**self.key_length)
        ]

    @cached_property
    def _reduced_basis(self) -> tuple[tuple[int, int], ...]:
        """The basis (C2 rows, then extension rows), reduced and tracked: a
        codeword of C1 is the sum of the rows whose pivot columns it has."""
        return BitMatrix(self.c2.G.rows + self.extension_rows).tracked_rref


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


@_kept_on_first_argument
def quotient(c1: LinearCode, c2: LinearCode) -> CosetQuotient:
    """Build the coset structure of C2 in C1, once per pair.

    Extension rows are the C1 generator rows a greedy scan keeps: each
    row that is independent of the C2 basis and the rows kept before
    it. One elimination finds them all, since the pivot columns of the
    transposed stack (C2 rows, then C1 rows) are exactly the stack rows
    independent of those before them. The stack has rank k1 exactly
    when C2 lies inside C1.
    """
    if c2.n != c1.n:
        raise ValueError("codes must have the same length")
    stack = BitMatrix(c2.G.rows + c1.G.rows)
    pivots = rref(stack.transpose()).pivot_cols
    if len(pivots) != c1.k:
        raise ValueError("C2 is not a subcode of C1")
    extension = tuple(stack.rows[p] for p in pivots[c2.k :])
    return CosetQuotient(c1=c1, c2=c2, extension_rows=extension)


def key_from_coset(q: CosetQuotient, u: BitVector) -> BitVector:
    """Key string for the coset u + C2.

    Expresses u in the basis (C2 basis rows, extension rows) and returns
    the coefficients on the extension rows, unique as the rows are
    independent. Constant on each coset and bijective across cosets.
    """
    if q.key_length == 0:
        raise ValueError("quotient has no extension rows (C2 = C1)")
    n, k1, total = q.c1.n, q.c1.k, 0
    if len(u) != n:
        raise ValueError(f"word length must be n={n}, got {len(u)}")
    for col, row in q._reduced_basis:
        if u.value >> (n - 1 - col) & 1:
            total ^= row
    # The rows picked by u's pivot bits sum to the one codeword that
    # agrees with u there: u itself exactly when u lies in C1.
    if total >> k1 != u.value:
        raise ValueError(f"{u} is not a codeword of C1")
    return BitVector(total & ((1 << q.key_length) - 1), q.key_length)


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


@cache
def named_code(name: str) -> LinearCode:
    """Look up a built-in code, built once: parity4, hamming74, or rep3."""
    try:
        g_rows, h_rows = _NAMED[name]
    except KeyError:
        raise ValueError(
            f"unknown code {name!r}; expected one of {sorted(_NAMED)}"
        ) from None
    return code_from_parts(BitMatrix.from_strings(g_rows), BitMatrix.from_strings(h_rows))


NAMED_CODE_NAMES = tuple(sorted(_NAMED))
