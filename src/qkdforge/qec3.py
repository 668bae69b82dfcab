"""Single-error quantum codes: 3-qubit bit-flip, 3-qubit phase-flip, and
the 9-qubit block code, with observable-based syndrome measurement.

Syndromes are read out by measuring two-qubit Z (or X) parity observables
directly; an eigenvalue of -1 marks a parity violation. Corrections apply
the matching Pauli, preserving the encoded amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BitVector
from .qsim import (
    ATOL,
    GATES,
    StateVector,
    apply_cnot,
    apply_gate,
    apply_matrix,
    hadamard_all,
    measure_paulis,
    pauli_row,
)

_IDENTITY = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class ArbitraryError:
    """Single-qubit unitary t*I + u*X + v*Y + w*Z acting on one qubit; its
    read-only matrix is built and checked once, at construction."""

    t: complex
    u: complex
    v: complex
    w: complex
    qubit: int

    def __post_init__(self) -> None:
        m = self.t * _IDENTITY + self.u * GATES["X"] + self.v * GATES["Y"] + self.w * GATES["Z"]
        if not np.allclose(m.conj().T @ m, _IDENTITY, atol=ATOL):
            raise ValueError("coefficients do not form a unitary matrix")
        m.setflags(write=False)
        object.__setattr__(self, "_matrix", m)

    def matrix(self) -> np.ndarray:
        return self._matrix


def rotation_error(theta: float, qubit: int) -> ArbitraryError:
    """cos(theta)*I + i*sin(theta)*X: a continuous bit-flip rotation."""
    return ArbitraryError(t=np.cos(theta), u=1j * np.sin(theta), v=0, w=0, qubit=qubit)


def random_error(rng: np.random.Generator, qubit: int) -> ArbitraryError:
    """Haar-random single-qubit unitary expressed in the Pauli basis."""
    ginibre = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(ginibre)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return ArbitraryError(
        t=complex(np.trace(q) / 2),
        u=complex(np.trace(GATES["X"] @ q) / 2),
        v=complex(np.trace(GATES["Y"] @ q) / 2),
        w=complex(np.trace(GATES["Z"] @ q) / 2),
        qubit=qubit,
    )


def apply_error(state: StateVector, error: ArbitraryError) -> StateVector:
    return apply_matrix(state, error.matrix(), error.qubit)


def _check_normalized(a: complex, b: complex) -> None:
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > ATOL:
        raise ValueError("|a|^2 + |b|^2 must equal 1")


def bitflip_encode(a: complex, b: complex) -> StateVector:
    """Encode a|0> + b|1> as a|000> + b|111> via two CNOTs on |s00>."""
    _check_normalized(a, b)
    state = apply_cnot(StateVector._scatter(3, [0b000, 0b100], [a, b]), 1, 2)
    return apply_cnot(state, 2, 3)


def bitflip_decode(state: StateVector) -> StateVector:
    """Inverse of the encoding CNOTs; leaves (a|0> + b|1>) x |00>."""
    state = apply_cnot(state, 2, 3)
    return apply_cnot(state, 1, 2)


# (Z1Z2, Z2Z3) eigenvalue pair -> flipped qubit (0 = none).
_PAIR_OUTCOME = {(+1, +1): 0, (-1, +1): 1, (-1, -1): 2, (+1, -1): 3}


def _repetition_round(
    state: StateVector, rng: np.random.Generator, kind: str, n: int, width: int = 1, offset: int = 0
) -> tuple[int, StateVector]:
    """One round of the 3-block repetition code on qubits offset + 1..:
    measure the kind-string over blocks 1-2, then over blocks 2-3, each
    block width qubits wide, and apply the other Pauli to the first qubit
    of the flagged block. Returns the block (0 = none) and the state."""
    row = BitVector((1 << 2 * width) - 1, 2 * width)
    rows = (pauli_row(row, kind, n, offset), pauli_row(row, kind, n, offset + width))
    eigenvalues, state = measure_paulis(state, rows, rng)
    block = _PAIR_OUTCOME[tuple(eigenvalues)]
    if block:
        state = apply_gate(state, "X" if kind == "Z" else "Z", offset + (block - 1) * width + 1)
    return block, state


def bitflip_syndrome_and_correct(
    state: StateVector, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Measure Z1Z2 then Z2Z3, identify the flipped qubit, apply X.

    Outcome 0 means no error; 1..3 name the corrected qubit. The encoded
    amplitudes are untouched.
    """
    return _repetition_round(state, rng, "Z", 3)


def phaseflip_encode(a: complex, b: complex) -> StateVector:
    """Encode a|0> + b|1> as a|+++> + b|--->."""
    return hadamard_all(bitflip_encode(a, b))


def phaseflip_syndrome_and_correct(
    state: StateVector, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Measure X1X2 then X2X3 (the Hadamard conjugates of the bit-flip
    observables), identify the flipped qubit, apply Z."""
    return _repetition_round(state, rng, "X", 3)


def shor_encode(a: complex, b: complex) -> StateVector:
    """Encode a|0> + b|1> into nine qubits: three blocks of
    (|000> +/- |111>)/sqrt(2), sign fixed by the logical bit."""
    _check_normalized(a, b)
    plus = np.zeros(8, dtype=complex)
    plus[0b000] = plus[0b111] = 1 / np.sqrt(2)
    minus = np.zeros(8, dtype=complex)
    minus[0b000] = 1 / np.sqrt(2)
    minus[0b111] = -1 / np.sqrt(2)
    zero_logical = np.kron(np.kron(plus, plus), plus)
    one_logical = np.kron(np.kron(minus, minus), minus)
    return StateVector(n=9, amps=a * zero_logical + b * one_logical)


@dataclass(frozen=True)
class ShorSyndrome:
    """Corrections applied by shor_correct: 1-based qubit indices that
    received an X, and the block (0 = none) that received a Z."""

    flipped_qubits: tuple[int, ...]
    phase_block: int


def shor_correct(
    state: StateVector, rng: np.random.Generator
) -> tuple[ShorSyndrome, StateVector]:
    """Full syndrome measurement and correction for the 9-qubit code.

    Z-pair observables inside each block locate bit flips; two six-qubit
    X-string observables compare block signs and locate the phase flip.
    Measurement discretizes any single-qubit unitary error, so the final
    state matches the uncorrupted codeword up to global phase.
    """
    flipped = []
    for offset in (0, 3, 6):
        within, state = _repetition_round(state, rng, "Z", 9, offset=offset)
        if within:
            flipped.append(offset + within)
    phase_block, state = _repetition_round(state, rng, "X", 9, width=3)
    return ShorSyndrome(flipped_qubits=tuple(flipped), phase_block=phase_block), state
