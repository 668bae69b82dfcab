"""CSS quantum codes built from a nested pair of classical codes.

A pair C2 < C1 (with C1 and the dual of C2 both t-error correcting)
yields quantum codewords: superpositions over the cosets of C2 in C1,
optionally parameterized by an n-bit shift x and a phase pattern z. Bit
flips are diagnosed by measuring Z-strings from C1's check matrix, phase
flips by X-strings from the check matrix of C2-dual (the generator of
C2), and both families of observables commute on codeword states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .codes import (
    CosetQuotient,
    _kept_on_first_argument,
    LinearCode,
    check_nested,
    quotient,
    syndrome_table_from_check,
)
from .gf2 import BitMatrix, BitVector, mat_apply
from .qsim import (
    ATOL,
    PauliString,
    StateVector,
    _check_size,
    apply_pauli_string,
    measure_paulis,
    overlap,
    pauli_row,
)

# Bytes verify_basis_identities holds: the 2^n x 2^n complex state
# matrix, its conj() and one product, 16 * 4^n bytes each, so n <= 12
# passes (README, Conventions). tracemalloc saw 3.01 * 16 * 4^n at n = 10.
BASIS_IDENTITY_LIMIT = 1 << 30


@dataclass(frozen=True)
class CssParams:
    """Generalized-codeword parameters: x shifts every ket by an n-bit
    string, z attaches the phase (-1)^(w.z) to the coset element w."""

    x: BitVector
    z: BitVector

    @classmethod
    def zero(cls, n: int) -> "CssParams":
        return cls(x=BitVector.zeros(n), z=BitVector.zeros(n))


@dataclass(eq=False, frozen=True)
class CssCode:
    """A validated CSS code: the classical pair, the coset structure, the
    two check matrices used for syndrome measurement, and prebuilt
    syndrome tables for up to t errors of each type."""

    c1: LinearCode
    c2: LinearCode
    quotient: CosetQuotient
    h1: BitMatrix
    h2: BitMatrix
    t: int
    bit_table: Mapping[BitVector, BitVector]
    phase_table: Mapping[BitVector, BitVector]

    @property
    def n(self) -> int:
        return self.c1.n

    @property
    def k(self) -> int:
        return self.c1.k - self.c2.k

    @cached_property
    def _c2_indices(self) -> np.ndarray:
        """C2's codewords as basis indices, in message order, read-only."""
        first = self.c2._packed_codewords()[:, 0].view(">u8")  # all n <= 62 bits
        indices = (first >> (64 - self.n)).astype(np.int64)
        indices.setflags(write=False)
        return indices

    def __repr__(self) -> str:
        return f"CssCode[n={self.n}, k={self.k}, t={self.t}]"


@_kept_on_first_argument
def css_build(c1: LinearCode, c2: LinearCode, t: Optional[int] = None) -> CssCode:
    """Validate the nesting and capacities, then assemble the code, once per (C1, C2, t).

    Requires C2 to be a proper subcode of C1 and both C1 and the dual of
    C2 to correct t errors. t defaults to the largest such value, the one t
    that css_correct, distillation and BB84's Shor-Preskill Bob decode to.
    """
    check_nested(c1, c2)
    c2_dual = c2.dual()
    if t is None:
        t = min(c1.corrects, c2_dual.corrects)
    if t > c1.corrects:
        raise ValueError(f"C1 corrects only {c1.corrects} errors, requested t={t}")
    if t > c2_dual.corrects:
        raise ValueError(
            f"the dual of C2 corrects only {c2_dual.corrects} errors, requested t={t}"
        )
    h1 = c1.H
    h2 = c2.G  # check matrix of C2-dual: k2 rows, orthogonal to C2-dual
    return CssCode(
        c1=c1,
        c2=c2,
        quotient=quotient(c1, c2),
        h1=h1,
        h2=h2,
        t=t,
        bit_table=syndrome_table_from_check(h1, t),
        phase_table=syndrome_table_from_check(h2, t),
    )


def css_codeword(
    code: CssCode, v: BitVector, params: Optional[CssParams] = None
) -> StateVector:
    """The codeword |C2|^(-1/2) * sum_{w in C2} (-1)^(w.z) |v + w + x>.

    With zero params this is the plain coset superposition. Codewords for
    v1, v2 coincide when v1 - v2 is in C2 and are orthogonal otherwise.
    """
    if params is None:
        params = CssParams.zero(code.n)
    if not code.c1.contains(v):
        raise ValueError(f"{v} is not a codeword of C1")
    _check_size(code.n, 2**code.c2.k)  # before C2 is enumerated
    # One write of +/-1 / sqrt(|C2|) per distinct codeword (README, Conventions).
    scale = 1.0 / np.sqrt(2**code.c2.k)
    words = code._c2_indices
    return StateVector._scatter(
        code.n,
        words ^ (v + params.x).value,
        np.where(np.bitwise_count(words & params.z.value) & 1, -scale, scale),
    )


@_kept_on_first_argument
def _row_observables(matrix: BitMatrix, kind: str, n: int, offset: int) -> tuple[PauliString, ...]:
    """pauli_row(row, kind, n, offset) for each row of the check matrix."""
    return tuple(pauli_row(row, kind, n, offset) for row in matrix.rows)


def _measure_rows(
    matrix: BitMatrix,
    kind: str,
    state: StateVector,
    rng: np.random.Generator,
    offset: int = 0,
) -> tuple[BitVector, StateVector]:
    """Measure pauli_row(row, kind) on qubits offset + 1.. for each row of
    the check matrix in order, one draw per row, and map eigenvalues
    +1 -> 0, -1 -> 1. Returns the syndrome and the collapsed state."""
    eigenvalues, state = measure_paulis(state, _row_observables(matrix, kind, state.n, offset), rng)
    syndrome = 0
    for eigenvalue in eigenvalues:
        syndrome = (syndrome << 1) | (eigenvalue == -1)
    return BitVector(syndrome, matrix.num_rows), state


def css_bit_syndrome(
    code: CssCode, state: StateVector, rng: np.random.Generator, offset: int = 0
) -> tuple[BitVector, StateVector]:
    """Measure the Z-string for each row of H1 on qubits offset + 1..
    offset + n and map eigenvalues +1 -> 0, -1 -> 1.

    On a codeword with bit errors e1 and shift x this equals
    H1.(e1 + x)^T. Returns the syndrome and the post-measurement state.
    """
    return _measure_rows(code.h1, "Z", state, rng, offset)


def css_phase_syndrome(
    code: CssCode, state: StateVector, rng: np.random.Generator, offset: int = 0
) -> tuple[BitVector, StateVector]:
    """Measure the X-string for each row of H2 on qubits offset + 1..
    offset + n; on a codeword with phase errors e2 and phase pattern z
    this equals H2.(e2 + z)^T."""
    return _measure_rows(code.h2, "X", state, rng, offset)


@dataclass(eq=False)
class CssCorrection:
    """Outcome of css_correct: the final state, the raw measured
    syndromes, and the Pauli patterns applied."""

    state: StateVector
    bit_syndrome: BitVector
    phase_syndrome: Optional[BitVector] = None
    x_correction: Optional[BitVector] = None
    z_correction: Optional[BitVector] = None
    status: str = "ok"  # "ok" | "detected_uncorrectable"


def css_correct(
    code: CssCode,
    state: StateVector,
    params: Optional[CssParams],
    rng: np.random.Generator,
    offset: int = 0,
) -> CssCorrection:
    """Correct bit flips first, then phase flips, on qubits offset + 1..
    offset + n of the state; params None means zero shift and phase.

    Each measured syndrome is shifted back by the announced-parameter
    contribution (H1.x^T or H2.z^T) before the table lookup; X and then Z
    corrections are applied to the flagged qubits. A syndrome outside the
    table stops the procedure with detected_uncorrectable. This decides
    uncorrectability for CSS correction and distillation; BB84's
    Shor-Preskill Bob decides it in codes.decode with the same bit_table.
    """
    if params is None:
        params = CssParams.zero(code.n)
    bit_syndrome, state = css_bit_syndrome(code, state, rng, offset)
    shifted = bit_syndrome + mat_apply(code.h1, params.x, side="right")
    if shifted not in code.bit_table:
        return CssCorrection(state, bit_syndrome, status="detected_uncorrectable")
    e1 = code.bit_table[shifted]
    state = apply_pauli_string(state, pauli_row(e1, "X", state.n, offset))

    phase_syndrome, state = css_phase_syndrome(code, state, rng, offset)
    shifted = phase_syndrome + mat_apply(code.h2, params.z, side="right")
    if shifted not in code.phase_table:
        return CssCorrection(
            state, bit_syndrome, phase_syndrome, e1, status="detected_uncorrectable"
        )
    e2 = code.phase_table[shifted]
    state = apply_pauli_string(state, pauli_row(e2, "Z", state.n, offset))

    return CssCorrection(state, bit_syndrome, phase_syndrome, e1, e2)


@dataclass(frozen=True)
class BasisIdentityReport:
    states: int
    orthonormality_deviation: float
    phase_branch_deviation: float
    completeness_deviation: float


def _identity_deviation(square: np.ndarray) -> float:
    """max |square - I|, taken by subtracting 1 on the diagonal in place."""
    square[np.diag_indices_from(square)] -= 1
    return float(np.max(np.abs(square)))


def verify_basis_identities(
    code: CssCode, x_set: list[BitVector], z_set: list[BitVector]
) -> BasisIdentityReport:
    """Check that the parameterized codewords form an orthonormal basis
    of the full 2^n space.

    Verifies (i) pairwise orthonormality of all 2^n states built from the
    coset representatives crossed with x_set and z_set, (ii) for each of
    the 2^n values of z, the overlap of a z-parameterized codeword with
    its z = 0 partner is 1 exactly when z is in the dual of C2 and 0
    otherwise, and (iii) the resolution of identity: summing
    |state><state| over the basis reproduces every computational ket.
    Raises ValueError if any identity is violated beyond 1e-9, and
    before any work if its bytes exceed BASIS_IDENTITY_LIMIT.
    """
    n = code.n
    needed = 3 * 16 * 4**n
    if needed > BASIS_IDENTITY_LIMIT:
        raise ValueError(
            f"verifying the basis of {n} qubits needs {needed} bytes, "
            f"over the limit {BASIS_IDENTITY_LIMIT}"
        )
    if len(x_set) != 2 ** (n - code.c1.k):
        raise ValueError(f"x_set must contain {2 ** (n - code.c1.k)} values")
    if len(z_set) != 2**code.c2.k:
        raise ValueError(f"z_set must contain {2 ** code.c2.k} values")
    # Two words share a coset of a code exactly when they share its syndrome.
    if len({code.c1.syndrome(x) for x in x_set}) != len(x_set):
        raise ValueError("x_set values must lie in distinct cosets of C1")
    c2_dual = code.c2.dual()
    if len({c2_dual.syndrome(z) for z in z_set}) != len(z_set):
        raise ValueError("z_set values must lie in distinct cosets of the dual of C2")

    # The counts above make the (v, x, z) grid exactly 2^n rows; one
    # codeword is alive at a time while its row is written.
    reps = [
        code.quotient.representative(BitVector(m, code.k)) for m in range(2**code.k)
    ]
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    for row, (v, x, z) in zip(matrix, itertools.product(reps, x_set, z_set)):
        codeword = css_codeword(code, v, CssParams(x=x, z=z))
        row[codeword._index] = codeword._values
    ortho_dev = _identity_deviation(matrix.conj() @ matrix.T)
    if ortho_dev > ATOL:
        raise ValueError(f"orthonormality violated: deviation {ortho_dev}")

    # Overlap with the z = 0 partner: 1 iff z is in the dual of C2.
    branch_dev = 0.0
    v0, x0 = reps[0], x_set[0]
    base = css_codeword(code, v0, CssParams(x=x0, z=BitVector.zeros(n)))
    for z in (BitVector(m, n) for m in range(2**n)):
        value = overlap(css_codeword(code, v0, CssParams(x=x0, z=z)), base)
        expected = 1.0 if c2_dual.contains(z) else 0.0
        branch_dev = max(branch_dev, abs(value - expected))
    if branch_dev > ATOL:
        raise ValueError(f"phase-branch overlap rule violated: deviation {branch_dev}")

    completeness_dev = _identity_deviation(matrix.T @ matrix.conj())
    if completeness_dev > ATOL:
        raise ValueError(f"resolution of identity violated: deviation {completeness_dev}")

    return BasisIdentityReport(
        states=len(matrix),
        orthonormality_deviation=ortho_dev,
        phase_branch_deviation=branch_dev,
        completeness_deviation=completeness_dev,
    )
