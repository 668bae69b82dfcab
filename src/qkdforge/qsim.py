"""State-vector simulator for small qubit registers.

Basis kets are indexed with qubit 1 as the leftmost (most significant)
bit: |j1 j2 ... jn> sits at index sum(j_i * 2^(n-i)). A state holds either
all 2^n amplitudes or, when built from a known support (basis states,
CSS codewords, EPR pairs), only its nonzero ones; the Pauli kernel and
the measurements keep such a state on its support and work on those
amplitudes alone. All operations are pure and return new StateVector
values; randomness enters only through an explicitly passed numpy
Generator, with exactly one uniform draw per measurement so seeded runs
are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .gf2 import BitVector

# Amplitudes in any one array a state builds: 2^n dense, or the kets of a
# support, whose int64 indices hold n <= 62 qubits (README, Conventions).
MAX_AMPLITUDES = 1 << 20
ATOL = 1e-9

_SQRT2 = np.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
}


def _check_size(n: int, kets: Optional[int] = None) -> None:
    """Refuse an n-qubit support of kets amplitudes, or a dense 2^n (kets None), before building."""
    limit = 62 if kets is not None else MAX_AMPLITUDES.bit_length() - 1  # checked before any 2^n
    if not 1 <= n <= limit:
        raise ValueError(f"qubit count must be in 1..{limit}, got {n}")
    if kets is not None and kets > MAX_AMPLITUDES:
        raise ValueError(f"{kets} kets on {n} qubits are over the {MAX_AMPLITUDES}-amplitude budget")


@dataclass(eq=False)
class StateVector:
    """Normalized complex amplitudes over n qubits, read-only, held in
    _values: the 2^n amps, copied (_index is None), or a support, the
    amplitudes at the sorted basis indices _index, outside of which every
    amplitude is 0. A support's amps are built on their first read."""

    n: int
    amps: np.ndarray
    _index = None  # no support: amps is the state

    def __post_init__(self, adopt: bool = False) -> None:
        _check_size(self.n, None if self._index is None else self._index.size)
        if self._index is None:
            self.amps = self._values = amps = self.amps if adopt else np.array(self.amps, dtype=complex)
            if amps.shape != (2**self.n,):
                raise ValueError(f"expected {2**self.n} amplitudes for n={self.n}, got {amps.shape}")
        else:  # the support holds every nonzero amplitude: the same norm
            amps = self._values
            self._index.setflags(write=False)
        _check_norm(amps)
        amps.setflags(write=False)

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: a support's amps.
        if name != "amps" or self._index is None:
            raise AttributeError(name)
        _check_size(self.n)
        amps = np.zeros(2**self.n, dtype=complex)
        amps[self._index] = self._values
        amps.setflags(write=False)
        self.amps = amps
        return amps

    @classmethod
    def _adopt(cls, n: int, amps: np.ndarray, index: Optional[np.ndarray] = None) -> "StateVector":
        """StateVector(n, amps) without the copy, for a kernel's fresh array;
        with an index, amps are the values on that sorted support."""
        state = cls.__new__(cls)
        state.n = n
        if index is None:
            state.amps = amps
        else:
            state._index, state._values = index, amps
        state.__post_init__(adopt=True)
        return state

    @classmethod
    def _scatter(cls, n: int, index, values) -> "StateVector":
        """The state with amplitudes values at the distinct basis indices
        index, zeros elsewhere, kept as that support; its size is checked first."""
        index = np.asarray(index, dtype=np.int64).reshape(-1)
        _check_size(n, index.size)
        order = index.argsort()  # css_codeword's words ^ (v + x) are unordered
        values = np.asarray(values, dtype=complex).reshape(-1)
        if values.size == 1:
            values = values.repeat(index.size)
        elif values.size != index.size:
            raise ValueError(f"{values.size} values for {index.size} basis indices")
        return cls._adopt(n, values[order], index[order])


# 2^13 amplitudes: below OpenBLAS's 10,000-element threading cut, so one
# block's dot runs on the calling thread whatever the BLAS thread count.
_BLOCK = 1 << 13


def _blocked(dot, a: np.ndarray, b: np.ndarray):
    """dot(a, b) as the sum of dot over fixed 2^13-element blocks, added in
    index order from block 0, so the same bits under any BLAS thread count
    (README, Conventions). Up to 2^13 elements that is the one call
    dot(a, b), which its callers make themselves."""
    total = dot(a[:_BLOCK], b[:_BLOCK])
    for start in range(_BLOCK, a.size, _BLOCK):
        total += dot(a[start : start + _BLOCK], b[start : start + _BLOCK])
    return total


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot(a, b), summed block by block."""
    return np.vdot(a, b) if a.size <= _BLOCK else _blocked(np.vdot, a, b)


def _norm(amps: np.ndarray) -> float:
    """np.linalg.norm(amps) by its own formula, the real-view dot plus the
    imaginary-view dot, then sqrt; each dot summed block by block."""
    re, im = amps.real, amps.imag
    if amps.size <= _BLOCK:
        return math.sqrt(np.dot(re, re) + np.dot(im, im))
    return math.sqrt(_blocked(np.dot, re, re) + _blocked(np.dot, im, im))


def _check_norm(amps: np.ndarray) -> None:
    """Reject amplitudes whose norm, one blocked vdot, is not within ATOL of 1."""
    norm = math.sqrt(_vdot(amps, amps).real)
    if not abs(norm - 1.0) <= ATOL:  # also rejects a NaN norm
        raise ValueError(f"state is not normalized: |amps| = {norm}")


def _divide(amps: np.ndarray, divisor: float) -> np.ndarray:
    """amps / divisor in place, as the float64 view times 1 / divisor: the
    same bits on every nonzero component (README, Conventions)."""
    floats = amps.view(np.float64)
    floats *= 1.0 / divisor
    return amps


def basis_state(bits: BitVector) -> StateVector:
    """The computational basis ket |bits>."""
    return StateVector._scatter(len(bits), bits.value, 1.0)


def _apply_single(amps: np.ndarray, n: int, qubit: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one tensor factor (qubit is 1-based)."""
    high, low = 2 ** (qubit - 1), 2 ** (n - qubit)
    pairs = amps.reshape(high, 2, low).transpose(1, 0, 2).reshape(2, -1)
    out = matrix @ pairs
    return out.reshape(2, high, low).transpose(1, 0, 2).reshape(-1)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 1 <= qubit <= state.n:
        raise ValueError(f"qubit index {qubit} out of range 1..{state.n}")


def apply_gate(state: StateVector, gate: str, qubit: int) -> StateVector:
    """Apply a named single-qubit gate (X, Y, Z, or H) to one qubit; the
    name is checked before the qubit."""
    try:
        matrix = GATES[gate]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r}; expected one of {sorted(GATES)}") from None
    return apply_matrix(state, matrix, qubit)


def apply_matrix(state: StateVector, matrix: np.ndarray, qubit: int) -> StateVector:
    """Apply an arbitrary single-qubit unitary to one qubit."""
    _check_qubit(state, qubit)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError("single-qubit matrix must be 2x2")
    return StateVector._adopt(state.n, _apply_single(state.amps, state.n, qubit, matrix))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target qubit on every basis ket whose control bit is 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("control and target must differ")
    source = np.arange(state.amps.size)
    source ^= (source >> (state.n - control) & 1) << (state.n - target)
    return StateVector._adopt(state.n, state.amps[source])


_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
# (-i)^{|x&z| mod 4}, a string's phase, and its negative: a sign table per phase.
_SIGNS = tuple(np.array((phase, -phase)) for phase in (1 + 0j, -1j, -1 + 0j, 1j))


@dataclass(frozen=True)
class PauliString:
    """Tensor product of I/X/Y/Z factors, e.g. PauliString("ZZII"), and
    its (x, z) masks over basis indices: X, Y set x bits, Z, Y set z bits."""

    factors: str
    x: int = field(init=False, repr=False, compare=False)
    z: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.factors or self.factors.strip("IXYZ"):
            raise ValueError(f"factors must be one or more of IXYZ: {self.factors!r}")
        object.__setattr__(self, "x", int(self.factors.translate(_X_BITS), 2))
        object.__setattr__(self, "z", int(self.factors.translate(_Z_BITS), 2))

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
    if not isinstance(row, BitVector):
        row = BitVector.from_ints(row)
    if n is None:
        n = offset + row.n
    if offset < 0 or offset + row.n > n:
        raise ValueError(f"a row of {row.n} at offset {offset} does not fit {n} qubits")
    mask = row.value << (n - offset - row.n)
    factors = format(mask, f"0{n}b").replace("0", "I").replace("1", kind)
    pauli = object.__new__(PauliString)  # the masks are the row: skip the parse
    pauli.__dict__.update(factors=factors, x=mask * (kind == "X"), z=mask * (kind == "Z"))
    return pauli


def _pauli_image(n: int, index: Optional[np.ndarray], values: np.ndarray, pauli: PauliString) -> tuple:
    """pauli applied to the n-qubit state (index, values) in that form:
    out[j] = i^{|x&z|} (-1)^{|(j^x)&z|} amps[j^x]
           = (-i)^{|x&z|} (-1)^{|j&z|} amps[j^x].
    A dense state (index None: every j, in order) gathers amps[j^x]; a
    support's image index ^ x is a few sorted runs, which one stable sort
    merges. The values are then multiplied once by the phase and the sign
    of each new index. Each factor is +/-1 or +/-i, so every nonzero
    component is exact. The identity gives the state's own (index, values)."""
    if len(pauli) != n:
        raise ValueError(f"Pauli string length {len(pauli)} != n={n}")
    x, z = pauli.x, pauli.z
    if not x | z:
        return index, values
    if index is None:
        image = np.arange(values.size)
        if x:
            values = values[image ^ x]
    elif x:
        image = index ^ x
        order = image.argsort(kind="stable")
        image, values = image[order], values[order]
    else:
        image = index
    if z:
        signs = _SIGNS[(x & z).bit_count() & 3]
        values = values * signs.take(np.bitwise_count(image & z) & 1)
    return (None if index is None else image), values


def apply_pauli_string(state: StateVector, pauli: PauliString) -> StateVector:
    """Apply a Pauli string with its phases (including the i's from Y)
    tracked exactly. An all-identity string returns the state itself."""
    index, values = _pauli_image(state.n, state._index, state._values, pauli)
    return state if values is state._values else StateVector._adopt(state.n, values, index)


def hadamard_all(state: StateVector) -> StateVector:
    """Hadamard on every qubit, computed as the fast transform
    amps'[z] = 2^(-n/2) * sum_i (-1)^(i.z) amps[i]; self-inverse."""
    amps = state.amps.copy()
    for i in range(state.n):
        top, bottom = amps.reshape(-1, 2, 1 << i).swapaxes(0, 1)
        top[...], bottom[...] = top + bottom, top - bottom
    return StateVector._adopt(state.n, _divide(amps, np.sqrt(amps.size)))


def _draw_outcome(rng: np.random.Generator, probabilities: Sequence[float]) -> int:
    """One uniform draw r, mapped through the cumulative distribution: the
    first outcome whose running total, summed in order, exceeds r."""
    r = rng.random()
    probabilities = np.asarray(probabilities, dtype=float)
    outcome = int(np.add.accumulate(probabilities).searchsorted(r, side="right"))
    if outcome < probabilities.size:
        return outcome
    # Float round-off left the total slightly below 1: fall back to the
    # last outcome that has any probability mass.
    nonzero = (probabilities > 0.0).nonzero()[0]
    if nonzero.size == 0:
        raise ValueError("all outcome probabilities are zero")
    return int(nonzero[-1])


def measure_paulis(
    state: StateVector, paulis: Sequence[PauliString], rng: np.random.Generator
) -> tuple[list[int], StateVector]:
    """Measure +/-1 Pauli observables in order, each via the projectors
    (I +/- P)/2 with one draw.

    Returns the sampled eigenvalues and the collapsed state. Between rows
    the state is its (index, values) arrays, whose norm is checked after
    every row as a StateVector's is, and one StateVector is built at the
    end. A state on a support stays on it, or on the support merged with
    its image under each Pauli, and the exact zeros of each collapse leave
    its support.
    """
    index, amps, eigenvalues = state._index, state._values, []
    for pauli in paulis:
        if eigenvalues:  # the previous row's collapse; the last one's is the new state's
            _check_norm(amps)
        image, applied = _pauli_image(state.n, index, amps, pauli)
        if image is not index and image.tobytes() != index.tobytes():
            # Every state on a support is a stabilizer state, whose support is
            # affine: the image misses it, each term of the dense <amps|applied>
            # has a zero factor, and p_plus is exactly 1/2 (README, Conventions).
            _check_size(state.n, index.size + image.size)
            both = np.concatenate((index, image))
            order = both.argsort(kind="stable")  # two sorted runs: one merge
            index = both[order]
            if np.count_nonzero(index[1:] == index[:-1]):
                raise AssertionError("a support must be affine: its Pauli image meets it in part")
            eigenvalue = +1 if rng.random() < 0.5 else -1
            collapsed = np.concatenate((amps, applied if eigenvalue == 1 else -applied))[order]
            amps = _divide(collapsed, _norm(collapsed))
        else:
            expectation = _vdot(amps, applied).real
            p_plus = min(max((1.0 + expectation) / 2.0, 0.0), 1.0)
            eigenvalue = +1 if rng.random() < p_plus else -1
            out = None if applied is amps else applied  # a fresh product: collapse in it
            collapsed = (np.add if eigenvalue == 1 else np.subtract)(amps, applied, out=out)
            norm = _norm(collapsed)
            if norm == 0.0:
                # Round-off left the drawn branch a sliver of probability and
                # no amplitude: applied was -/+amps exactly, so the other
                # branch, the one with all the mass, is amps + amps.
                eigenvalue = -eigenvalue
                collapsed = np.add(amps, amps, out=collapsed)
                norm = _norm(collapsed)
            amps = _divide(collapsed, norm)
            if index is not None:
                kept = amps.nonzero()[0]
                if kept.size < amps.size:  # with no exact zero, no gather
                    amps, index = amps[kept], index[kept]
        eigenvalues.append(eigenvalue)
    return eigenvalues, StateVector._adopt(state.n, amps, index)


def measure_all_z(
    state: StateVector, rng: np.random.Generator
) -> tuple[BitVector, StateVector]:
    """Measure every qubit in the computational basis.

    Samples a basis string with probability |amplitude|^2 (one draw) and
    collapses to that ket.
    """
    weights = np.abs(state._values) ** 2
    # Zero weights skipped: adding +0.0 changes no sum (README, Conventions).
    support = (weights != 0.0).nonzero()[0]
    ket = support[_draw_outcome(rng, weights[support])]
    bits = BitVector(int(ket if state._index is None else state._index[ket]), state.n)
    return bits, basis_state(bits)


def overlap(a: StateVector, b: StateVector) -> complex:
    """The scalar product <a|b>."""
    if a.n != b.n:
        raise ValueError(f"qubit counts differ: {a.n} vs {b.n}")
    return complex(_vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|: equality up to global phase means fidelity 1."""
    return abs(overlap(a, b))


def support(state: StateVector) -> dict[str, complex]:
    """{ket label: amplitude} for every amplitude with magnitude above
    1e-12, in index order."""
    amps = state._values
    kept = (np.abs(amps) > 1e-12).nonzero()[0]
    kets = kept if state._index is None else state._index[kept]
    return {format(ket, f"0{state.n}b"): complex(amps[i]) for ket, i in zip(kets, kept)}
