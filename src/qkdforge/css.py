"""CSS quantum codes built from a nested pair of classical codes.

A pair C2 < C1 (with C1 and the dual of C2 both t-error correcting)
yields quantum codewords: superpositions over the cosets of C2 in C1,
optionally parameterized by an n-bit shift x and a phase pattern z. Bit
flips are diagnosed by measuring Z-strings from C1's check matrix, phase
flips by X-strings from the check matrix of C2-dual (the generator of
C2), and both families of observables commute on codeword states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codes import (
    CosetQuotient,
    LinearCode,
    SyndromeTable,
    check_nested,
    quotient,
    syndrome_table_from_check,
)
from .gf2 import BitMatrix, BitVector, mat_apply
from .qsim import (
    StateVector,
    apply_pauli_string,
    fidelity,
    hadamard_all,
    measure_pauli_observable,
    overlap,
    pauli_row,
)

ATOL = 1e-9
IDENTIFY_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CssParams:
    """Generalized-codeword parameters: x shifts every ket by an n-bit
    string, z attaches the phase (-1)^(w.z) to the coset element w."""

    x: BitVector
    z: BitVector

    @classmethod
    def zero(cls, n: int) -> "CssParams":
        return cls(x=BitVector.zeros(n), z=BitVector.zeros(n))


@dataclass(eq=False)
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
    bit_table: SyndromeTable
    phase_table: SyndromeTable

    @property
    def n(self) -> int:
        return self.c1.n

    @property
    def k(self) -> int:
        return self.c1.k - self.c2.k

    def __repr__(self) -> str:
        return f"CssCode[n={self.n}, k={self.k}, t={self.t}]"


def css_build(c1: LinearCode, c2: LinearCode, t: int) -> CssCode:
    """Validate the nesting and capacities, then assemble the code.

    Requires C2 to be a proper subcode of C1 and both C1 and the dual of
    C2 to correct t errors.
    """
    check_nested(c1, c2)
    if t > c1.corrects:
        raise ValueError(f"C1 corrects only {c1.corrects} errors, requested t={t}")
    c2_dual = c2.dual()
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
    amps = np.zeros(2**code.n, dtype=complex)
    shift = (v + params.x).value
    for w in code.c2.codewords():
        amps[w.value ^ shift] += -1.0 if w.dot(params.z) else 1.0
    amps /= np.sqrt(2**code.c2.k)
    return StateVector(n=code.n, amps=amps)


def measure_check_rows(
    matrix: BitMatrix,
    kind: str,
    state: StateVector,
    rng: np.random.Generator,
    offset: int = 0,
) -> tuple[BitVector, StateVector]:
    """Measure pauli_row(row, kind) on qubits offset + 1.. for each row of
    the check matrix in order, one draw per row, and map eigenvalues
    +1 -> 0, -1 -> 1. Returns the syndrome and the collapsed state."""
    syndrome = 0
    for row in matrix.rows:
        observable = pauli_row(row, kind, state.n, offset)
        eigenvalue, state = measure_pauli_observable(state, observable, rng)
        syndrome = (syndrome << 1) | (eigenvalue == -1)
    return BitVector(syndrome, matrix.num_rows), state


def css_bit_syndrome(
    code: CssCode, state: StateVector, rng: np.random.Generator
) -> tuple[BitVector, StateVector]:
    """Measure the Z-string for each row of H1 and map eigenvalues
    +1 -> 0, -1 -> 1.

    On a codeword with bit errors e1 and shift x this equals
    H1.(e1 + x)^T. Returns the syndrome and the post-measurement state.
    """
    return measure_check_rows(code.h1, "Z", state, rng)


def css_phase_syndrome(
    code: CssCode, state: StateVector, rng: np.random.Generator
) -> tuple[BitVector, StateVector]:
    """Measure the X-string for each row of H2; on a codeword with phase
    errors e2 and phase pattern z this equals H2.(e2 + z)^T."""
    return measure_check_rows(code.h2, "X", state, rng)


def css_phase_syndrome_hadamard(
    code: CssCode, state: StateVector, rng: np.random.Generator
) -> tuple[BitVector, StateVector]:
    """Cross-validation path: transform with Hadamards on every qubit,
    read the phase syndrome as Z-strings of H2, transform back. Produces
    the same outcomes as css_phase_syndrome."""
    transformed = hadamard_all(state)
    syndrome, transformed = measure_check_rows(code.h2, "Z", transformed, rng)
    return syndrome, hadamard_all(transformed)


@dataclass(eq=False)
class CssCorrection:
    """Outcome of css_correct: the final state, the raw measured
    syndromes, and the Pauli patterns applied."""

    state: StateVector
    bit_syndrome: BitVector
    phase_syndrome: Optional[BitVector]
    x_correction: Optional[BitVector]
    z_correction: Optional[BitVector]
    status: str  # "ok" | "detected_uncorrectable"


def css_correct(
    code: CssCode,
    state: StateVector,
    params: Optional[CssParams] = None,
    rng: Optional[np.random.Generator] = None,
) -> CssCorrection:
    """Correct bit flips first, then phase flips.

    Each measured syndrome is shifted back by the announced-parameter
    contribution (H1.x^T or H2.z^T) before the table lookup; X and then Z
    corrections are applied to the flagged qubits. A syndrome outside the
    table stops the procedure with detected_uncorrectable.
    """
    if params is None:
        params = CssParams.zero(code.n)
    if rng is None:
        rng = np.random.default_rng()

    bit_syndrome, state = css_bit_syndrome(code, state, rng)
    shifted = bit_syndrome + mat_apply(code.h1, params.x, side="right")
    if shifted not in code.bit_table:
        return CssCorrection(
            state=state,
            bit_syndrome=bit_syndrome,
            phase_syndrome=None,
            x_correction=None,
            z_correction=None,
            status="detected_uncorrectable",
        )
    e1 = code.bit_table[shifted]
    state = apply_pauli_string(state, pauli_row(e1, "X"))

    phase_syndrome, state = css_phase_syndrome(code, state, rng)
    shifted = phase_syndrome + mat_apply(code.h2, params.z, side="right")
    if shifted not in code.phase_table:
        return CssCorrection(
            state=state,
            bit_syndrome=bit_syndrome,
            phase_syndrome=phase_syndrome,
            x_correction=e1,
            z_correction=None,
            status="detected_uncorrectable",
        )
    e2 = code.phase_table[shifted]
    state = apply_pauli_string(state, pauli_row(e2, "Z"))

    return CssCorrection(
        state=state,
        bit_syndrome=bit_syndrome,
        phase_syndrome=phase_syndrome,
        x_correction=e1,
        z_correction=e2,
        status="ok",
    )


def css_identify(
    code: CssCode, state: StateVector, params: Optional[CssParams] = None
) -> BitVector:
    """Classify a clean codeword state: returns the key string of the
    coset whose codeword overlaps the state with modulus 1."""
    for m in range(2**code.k):
        key = BitVector(m, code.k)
        reference = css_codeword(code, code.quotient.representative(key), params)
        if fidelity(reference, state) >= 1.0 - IDENTIFY_TOLERANCE:
            return key
    raise ValueError("state does not match any codeword of this code")


@dataclass(frozen=True)
class BasisIdentityReport:
    states: int
    orthonormality_deviation: float
    phase_branch_deviation: float
    completeness_deviation: float


def verify_basis_identities(
    code: CssCode, x_set: list[BitVector], z_set: list[BitVector]
) -> BasisIdentityReport:
    """Check that the parameterized codewords form an orthonormal basis
    of the full 2^n space.

    Verifies (i) pairwise orthonormality of all 2^n states built from the
    coset representatives crossed with x_set and z_set, (ii) the overlap
    of a z-parameterized codeword with its z = 0 partner is 1 exactly
    when z is in the dual of C2 and 0 otherwise, and (iii) the resolution
    of identity: summing |state><state| over the basis reproduces every
    computational ket. Raises ValueError if any identity is violated
    beyond 1e-9.
    """
    n = code.n
    if len(x_set) != 2 ** (n - code.c1.k):
        raise ValueError(f"x_set must contain {2 ** (n - code.c1.k)} values")
    if len(z_set) != 2**code.c2.k:
        raise ValueError(f"z_set must contain {2 ** code.c2.k} values")
    for i, xi in enumerate(x_set):
        for xj in x_set[i + 1 :]:
            if code.c1.contains(xi + xj):
                raise ValueError("x_set values must lie in distinct cosets of C1")
    c2_dual = code.c2.dual()
    for i, zi in enumerate(z_set):
        for zj in z_set[i + 1 :]:
            if c2_dual.contains(zi + zj):
                raise ValueError(
                    "z_set values must lie in distinct cosets of the dual of C2"
                )

    reps = [
        code.quotient.representative(BitVector(m, code.k)) for m in range(2**code.k)
    ]
    states = [
        css_codeword(code, v, CssParams(x=x, z=z))
        for v in reps
        for x in x_set
        for z in z_set
    ]
    if len(states) != 2**n:
        raise AssertionError("parameter grid does not span the full space")

    matrix = np.array([s.amps for s in states])
    gram = matrix.conj() @ matrix.T
    ortho_dev = float(np.max(np.abs(gram - np.eye(len(states)))))
    if ortho_dev > ATOL:
        raise ValueError(f"orthonormality violated: deviation {ortho_dev}")

    # Overlap with the z = 0 partner: 1 iff z is in the dual of C2.
    branch_dev = 0.0
    if n <= 10:
        z_values = [BitVector(m, n) for m in range(2**n)]
    else:
        z_values = list(z_set) + [c for c in c2_dual.codewords()]
    v0, x0 = reps[0], x_set[0]
    base = css_codeword(code, v0, CssParams(x=x0, z=BitVector.zeros(n)))
    for z in z_values:
        value = overlap(css_codeword(code, v0, CssParams(x=x0, z=z)), base)
        expected = 1.0 if c2_dual.contains(z) else 0.0
        branch_dev = max(branch_dev, abs(value - expected))
    if branch_dev > ATOL:
        raise ValueError(f"phase-branch overlap rule violated: deviation {branch_dev}")

    resolution = matrix.T @ matrix.conj()
    completeness_dev = float(np.max(np.abs(resolution - np.eye(2**n))))
    if completeness_dev > ATOL:
        raise ValueError(f"resolution of identity violated: deviation {completeness_dev}")

    return BasisIdentityReport(
        states=len(states),
        orthonormality_deviation=ortho_dev,
        phase_branch_deviation=branch_dev,
        completeness_deviation=completeness_dev,
    )
