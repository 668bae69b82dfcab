"""Dense state-vector simulator for small qubit registers.

Basis kets are indexed with qubit 1 as the leftmost (most significant)
bit: |j1 j2 ... jn> sits at index sum(j_i * 2^(n-i)). All operations are
pure and return new StateVector values; randomness enters only through an
explicitly passed numpy Generator, with exactly one uniform draw per
measurement so seeded runs are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .gf2 import BitVector

MAX_QUBITS = 20
ATOL = 1e-9

_SQRT2 = np.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
}


@dataclass(eq=False)
class StateVector:
    """Normalized complex amplitudes over n qubits."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {self.n}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(
                f"expected {2**self.n} amplitudes for n={self.n}, got {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state is not normalized: |amps| = {norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def ket_label(self, index: int) -> str:
        return format(index, f"0{self.n}b")


def basis_state(bits: BitVector) -> StateVector:
    """The computational basis ket |bits>."""
    n = len(bits)
    amps = np.zeros(2**n, dtype=complex)
    amps[bits.value] = 1.0
    return StateVector(n=n, amps=amps)


def _apply_single(amps: np.ndarray, n: int, qubit: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one tensor factor (qubit is 1-based)."""
    tensor = amps.reshape((2,) * n)
    moved = np.moveaxis(tensor, qubit - 1, 0).reshape(2, -1)
    out = matrix @ moved
    out = np.moveaxis(out.reshape((2,) + (2,) * (n - 1)), 0, qubit - 1)
    return out.reshape(-1)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 1 <= qubit <= state.n:
        raise ValueError(f"qubit index {qubit} out of range 1..{state.n}")


def apply_gate(state: StateVector, gate: str, qubit: int) -> StateVector:
    """Apply a named single-qubit gate (X, Y, Z, or H) to one qubit."""
    _check_qubit(state, qubit)
    try:
        matrix = GATES[gate]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r}; expected one of {sorted(GATES)}") from None
    return StateVector(n=state.n, amps=_apply_single(state.amps, state.n, qubit, matrix))


def apply_matrix(state: StateVector, matrix: np.ndarray, qubit: int) -> StateVector:
    """Apply an arbitrary single-qubit unitary to one qubit."""
    _check_qubit(state, qubit)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("single-qubit matrix must be 2x2")
    return StateVector(n=state.n, amps=_apply_single(state.amps, state.n, qubit, matrix))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target qubit on every basis ket whose control bit is 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must differ")
    tensor = state.amps.reshape((2,) * state.n).copy()
    selector: list = [slice(None)] * state.n
    selector[control - 1] = 1
    sub_axis = target - 1 if target < control else target - 2
    tensor[tuple(selector)] = np.flip(tensor[tuple(selector)], axis=sub_axis)
    return StateVector(n=state.n, amps=tensor.reshape(-1))


@dataclass(frozen=True)
class PauliString:
    """Tensor product of I/X/Y/Z factors, e.g. PauliString("ZZII")."""

    factors: str

    def __post_init__(self) -> None:
        if len(self.factors) == 0:
            raise ValueError("PauliString must have at least one factor")
        if any(c not in "IXYZ" for c in self.factors):
            raise ValueError(f"factors must be drawn from IXYZ: {self.factors!r}")

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return self.factors


def pauli_row(
    row: Iterable[int], kind: str, n: Optional[int] = None, offset: int = 0
) -> PauliString:
    """Turn a bit row (a check-matrix row or an error pattern) into a
    Pauli string on n qubits, n = offset + len(row) by default: the chosen
    Pauli on qubit offset + i + 1 where bit i is 1, identity elsewhere."""
    if kind not in ("Z", "X"):
        raise ValueError(f"kind must be 'Z' or 'X', got {kind!r}")
    factors = "".join(kind if b else "I" for b in row)
    if n is None:
        n = offset + len(factors)
    if offset < 0 or offset + len(factors) > n:
        raise ValueError(f"a row of {len(factors)} at offset {offset} does not fit {n} qubits")
    return PauliString("I" * offset + factors + "I" * (n - offset - len(factors)))


def apply_pauli_string(state: StateVector, pauli: PauliString) -> StateVector:
    """Apply each non-identity factor; phases (including the i's from Y)
    are tracked exactly. An all-identity string returns the state itself."""
    if len(pauli) != state.n:
        raise ValueError(f"Pauli string length {len(pauli)} != n={state.n}")
    if not pauli.factors.strip("I"):
        return state
    amps = state.amps
    for position, factor in enumerate(pauli.factors, start=1):
        if factor != "I":
            amps = _apply_single(amps, state.n, position, GATES[factor])
    return StateVector(n=state.n, amps=amps)


def hadamard_all(state: StateVector) -> StateVector:
    """Hadamard on every qubit, computed as the fast transform
    amps'[z] = 2^(-n/2) * sum_i (-1)^(i.z) amps[i]; self-inverse."""
    amps = state.amps.astype(complex).copy()
    size = amps.size
    h = 1
    while h < size:
        block = amps.reshape(-1, 2, h)
        top = block[:, 0, :].copy()
        bottom = block[:, 1, :].copy()
        block[:, 0, :] = top + bottom
        block[:, 1, :] = top - bottom
        h *= 2
    amps /= np.sqrt(size)
    return StateVector(n=state.n, amps=amps)


@dataclass(frozen=True)
class BasisProjector:
    """Projector onto the span of the given kets, either directly in the
    computational basis or conjugated by Hadamards on every qubit."""

    kets: frozenset[str]
    basis: str = "computational"  # "computational" | "hadamard"

    def __post_init__(self) -> None:
        if not self.kets:
            raise ValueError("projector needs at least one ket")
        if self.basis not in ("computational", "hadamard"):
            raise ValueError(f"unknown basis {self.basis!r}")

    def indices(self, n: int) -> frozenset[int]:
        for ket in self.kets:
            if len(ket) != n or any(c not in "01" for c in ket):
                raise ValueError(f"bad ket {ket!r} for n={n}")
        return frozenset(int(k, 2) for k in self.kets)


@dataclass(frozen=True)
class MeasurementRecord:
    outcome: int
    probability: float
    eigenvalue: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0 + ATOL:
            raise ValueError(f"probability out of range: {self.probability}")


def _draw_outcome(rng: np.random.Generator, probabilities: Sequence[float]) -> int:
    """One uniform draw, mapped through the cumulative distribution."""
    r = rng.random()
    acc = 0.0
    for i, p in enumerate(probabilities):
        acc += p
        if r < acc:
            return i
    # Float round-off left the total slightly below 1: fall back to the
    # last outcome that has any probability mass.
    for i in range(len(probabilities) - 1, -1, -1):
        if probabilities[i] > 0.0:
            return i
    raise ValueError("all outcome probabilities are zero")


def measure_projective(
    state: StateVector,
    projectors: Sequence[BasisProjector],
    rng: np.random.Generator,
) -> tuple[MeasurementRecord, StateVector]:
    """Projective measurement over a complete orthogonal projector set.

    The projectors must all use the same basis and their kets must
    partition the full space. Outcome i is sampled with probability
    <psi|P_i|psi> and the state collapses to P_i|psi> renormalized.
    """
    if not projectors:
        raise ValueError("need at least one projector")
    bases = {p.basis for p in projectors}
    if len(bases) != 1:
        raise ValueError("all projectors in one measurement must share a basis")
    basis = bases.pop()

    index_sets = [p.indices(state.n) for p in projectors]
    total = sum(len(s) for s in index_sets)
    union = frozenset().union(*index_sets)
    if total != len(union) or len(union) != 2**state.n:
        raise ValueError("projector kets must partition the full basis")

    work = hadamard_all(state) if basis == "hadamard" else state
    weights = np.abs(work.amps) ** 2
    probabilities = [float(sum(weights[i] for i in s)) for s in index_sets]

    outcome = _draw_outcome(rng, probabilities)
    mask = np.zeros_like(work.amps, dtype=bool)
    for i in index_sets[outcome]:
        mask[i] = True
    collapsed = np.where(mask, work.amps, 0.0)
    collapsed = collapsed / np.linalg.norm(collapsed)
    new_state = StateVector(n=state.n, amps=collapsed)
    if basis == "hadamard":
        new_state = hadamard_all(new_state)
    record = MeasurementRecord(outcome=outcome, probability=probabilities[outcome])
    return record, new_state


def measure_pauli_observable(
    state: StateVector, pauli: PauliString, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Measure a +/-1 Pauli observable via the projectors (I +/- P)/2.

    Returns the sampled eigenvalue and the collapsed state.
    """
    applied = apply_pauli_string(state, pauli)
    expectation = float(np.real(np.vdot(state.amps, applied.amps)))
    p_plus = min(max((1.0 + expectation) / 2.0, 0.0), 1.0)
    r = rng.random()
    if r < p_plus:
        eigenvalue = +1
        collapsed = state.amps + applied.amps
    else:
        eigenvalue = -1
        collapsed = state.amps - applied.amps
    collapsed = collapsed / np.linalg.norm(collapsed)
    return eigenvalue, StateVector(n=state.n, amps=collapsed)


def measure_all_z(
    state: StateVector, rng: np.random.Generator
) -> tuple[BitVector, StateVector]:
    """Measure every qubit in the computational basis.

    Samples a basis string with probability |amplitude|^2 (one draw) and
    collapses to that ket.
    """
    weights = np.abs(state.amps) ** 2
    outcome = _draw_outcome(rng, weights)
    bits = BitVector(outcome, state.n)
    return bits, basis_state(bits)


def overlap(a: StateVector, b: StateVector) -> complex:
    """The scalar product <a|b>."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|: equality up to global phase means fidelity 1."""
    return abs(overlap(a, b))


def amplitudes_json(state: StateVector, threshold: float = 1e-12) -> str:
    """Debug dump: JSON array of [basis string, re, im] for every
    amplitude with magnitude above the threshold."""
    entries = [
        [state.ket_label(i), float(a.real), float(a.imag)]
        for i, a in enumerate(state.amps)
        if abs(a) > threshold
    ]
    return json.dumps(entries)
