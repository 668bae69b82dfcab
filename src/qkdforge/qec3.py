"""Single-error quantum codes: 3-qubit bit-flip, 3-qubit phase-flip, and
the 9-qubit block code, with observable-based syndrome measurement.

Syndromes are read out by measuring two-qubit Z (or X) parity observables
directly; an eigenvalue of -1 marks a parity violation. Corrections apply
the matching Pauli, preserving the encoded amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import (
    GATES,
    PauliString,
    StateVector,
    apply_cnot,
    apply_gate,
    apply_matrix,
    hadamard_all,
    measure_pauli_observable,
    pauli_row,
)

ATOL = 1e-9


@dataclass(frozen=True)
class ArbitraryError:
    """Single-qubit unitary t*I + u*X + v*Y + w*Z acting on one qubit."""

    t: complex
    u: complex
    v: complex
    w: complex
    qubit: int

    def __post_init__(self) -> None:
        m = self.matrix()
        if not np.allclose(m.conj().T @ m, np.eye(2), atol=ATOL):
            raise ValueError("coefficients do not form a unitary matrix")

    def matrix(self) -> np.ndarray:
        return (
            self.t * np.eye(2, dtype=complex)
            + self.u * GATES["X"]
            + self.v * GATES["Y"]
            + self.w * GATES["Z"]
        )


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
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = a
    amps[0b100] = b
    state = StateVector(n=3, amps=amps)
    state = apply_cnot(state, 1, 2)
    return apply_cnot(state, 2, 3)


def bitflip_decode(state: StateVector) -> StateVector:
    """Inverse of the encoding CNOTs; leaves (a|0> + b|1>) x |00>."""
    state = apply_cnot(state, 2, 3)
    return apply_cnot(state, 1, 2)


# (Z1Z2, Z2Z3) eigenvalue pair -> flipped qubit (0 = none).
_PAIR_OUTCOME = {(+1, +1): 0, (-1, +1): 1, (-1, -1): 2, (+1, -1): 3}


def bitflip_syndrome_and_correct(
    state: StateVector, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Measure Z1Z2 then Z2Z3, identify the flipped qubit, apply X.

    Outcome 0 means no error; 1..3 name the corrected qubit. The encoded
    amplitudes are untouched.
    """
    g1, state = measure_pauli_observable(state, PauliString("ZZI"), rng)
    g2, state = measure_pauli_observable(state, PauliString("IZZ"), rng)
    outcome = _PAIR_OUTCOME[(g1, g2)]
    if outcome:
        state = apply_gate(state, "X", outcome)
    return outcome, state


def phaseflip_encode(a: complex, b: complex) -> StateVector:
    """Encode a|0> + b|1> as a|+++> + b|--->."""
    return hadamard_all(bitflip_encode(a, b))


def phaseflip_syndrome_and_correct(
    state: StateVector, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Measure X1X2 then X2X3 (the Hadamard conjugates of the bit-flip
    observables), identify the flipped qubit, apply Z."""
    g1, state = measure_pauli_observable(state, PauliString("XXI"), rng)
    g2, state = measure_pauli_observable(state, PauliString("IXX"), rng)
    outcome = _PAIR_OUTCOME[(g1, g2)]
    if outcome:
        state = apply_gate(state, "Z", outcome)
    return outcome, state


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


_BLOCKS = ((1, 2, 3), (4, 5, 6), (7, 8, 9))


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
    for q1, q2, q3 in _BLOCKS:
        g1, state = measure_pauli_observable(state, pauli_row((1, 1), "Z", 9, q1 - 1), rng)
        g2, state = measure_pauli_observable(state, pauli_row((1, 1), "Z", 9, q2 - 1), rng)
        within = _PAIR_OUTCOME[(g1, g2)]
        if within:
            qubit = (q1, q2, q3)[within - 1]
            state = apply_gate(state, "X", qubit)
            flipped.append(qubit)

    s12, state = measure_pauli_observable(state, pauli_row((1,) * 6, "X", 9, 0), rng)
    s23, state = measure_pauli_observable(state, pauli_row((1,) * 6, "X", 9, 3), rng)
    phase_block = _PAIR_OUTCOME[(s12, s23)]
    if phase_block:
        state = apply_gate(state, "Z", _BLOCKS[phase_block - 1][0])

    return ShorSyndrome(flipped_qubits=tuple(flipped), phase_block=phase_block), state
