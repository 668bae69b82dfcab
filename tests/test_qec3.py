import copy

import numpy as np
import pytest

from qkdforge import qec3
from qkdforge.gf2 import BitVector
from qkdforge.qec3 import (
    ArbitraryError,
    apply_error,
    bitflip_decode,
    bitflip_encode,
    bitflip_syndrome_and_correct,
    phaseflip_encode,
    phaseflip_syndrome_and_correct,
    random_error,
    rotation_error,
    shor_correct,
    shor_encode,
)
from qkdforge.qsim import (
    ATOL,
    apply_gate,
    basis_state,
    fidelity,
    hadamard_all,
    measure_paulis,
    overlap,
    pauli_row,
)

BV = BitVector.from_string


def random_amplitude_pair(rng):
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


class TestBitflipCode:
    def test_logical_kets(self):
        assert np.allclose(bitflip_encode(1, 0).amps, basis_state(BV("000")).amps)
        assert np.allclose(bitflip_encode(0, 1).amps, basis_state(BV("111")).amps)

    def test_superposition(self):
        s = 1 / np.sqrt(2)
        state = bitflip_encode(s, s)
        assert state.amps[0b000] == pytest.approx(s)
        assert state.amps[0b111] == pytest.approx(s)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            bitflip_encode(1, 1)

    def test_decode_recovers_input(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = random_amplitude_pair(rng)
            decoded = bitflip_decode(bitflip_encode(a, b))
            expected = np.zeros(8, dtype=complex)
            expected[0b000], expected[0b100] = a, b
            assert np.allclose(decoded.amps, expected)

    def test_each_single_flip_corrected(self):
        rng = np.random.default_rng(1)
        for qubit in (0, 1, 2, 3):
            a, b = random_amplitude_pair(rng)
            clean = bitflip_encode(a, b)
            state = clean if qubit == 0 else apply_gate(clean, "X", qubit)
            outcome, corrected = bitflip_syndrome_and_correct(state, rng)
            assert outcome == qubit
            assert fidelity(corrected, clean) == pytest.approx(1.0, abs=1e-9)

    def test_amplitudes_preserved_not_just_support(self):
        rng = np.random.default_rng(2)
        a, b = 0.28 + 0.4j, random_amplitude_pair(rng)[1]
        b = np.sqrt(1 - abs(a) ** 2) * b / abs(b)
        clean = bitflip_encode(a, b)
        _, corrected = bitflip_syndrome_and_correct(apply_gate(clean, "X", 2), rng)
        assert overlap(clean, corrected) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 6, np.pi / 4, np.pi / 3])
    def test_rotation_discretizes(self, theta):
        rng = np.random.default_rng(int(theta * 1000) + 3)
        a, b = 0.6, 0.8
        clean = bitflip_encode(a, b)
        trials = 10_000
        none_count = 0
        for _ in range(trials):
            corrupted = apply_error(clean, rotation_error(theta, qubit=3))
            outcome, corrected = bitflip_syndrome_and_correct(corrupted, rng)
            assert outcome in (0, 3)
            none_count += outcome == 0
            assert fidelity(corrected, clean) == pytest.approx(1.0, abs=1e-9)
        p = np.cos(theta) ** 2
        sigma = np.sqrt(trials * p * (1 - p))
        assert abs(none_count - trials * p) <= 3 * sigma + 1e-9


class TestPhaseflipCode:
    def test_logical_kets(self):
        plus = hadamard_all(basis_state(BV("000")))
        minus = hadamard_all(basis_state(BV("111")))
        assert np.allclose(phaseflip_encode(1, 0).amps, plus.amps)
        assert np.allclose(phaseflip_encode(0, 1).amps, minus.amps)

    def test_sign_flip_on_plus_state(self):
        # Z turns a + factor into a - factor; the syndrome localizes it.
        rng = np.random.default_rng(4)
        state = apply_gate(phaseflip_encode(1, 0), "Z", 1)
        outcome, _ = phaseflip_syndrome_and_correct(state, rng)
        assert outcome == 1

    def test_second_qubit_flip_corrected(self):
        rng = np.random.default_rng(5)
        a, b = random_amplitude_pair(rng)
        clean = phaseflip_encode(a, b)
        outcome, corrected = phaseflip_syndrome_and_correct(
            apply_gate(clean, "Z", 2), rng
        )
        assert outcome == 2
        assert fidelity(corrected, clean) == pytest.approx(1.0, abs=1e-9)

    def test_clean_state_untouched(self):
        rng = np.random.default_rng(6)
        clean = phaseflip_encode(0.6, 0.8)
        outcome, corrected = phaseflip_syndrome_and_correct(clean, rng)
        assert outcome == 0
        assert fidelity(corrected, clean) == pytest.approx(1.0, abs=1e-9)

    def test_hadamard_returns_to_bit_basis(self):
        rng = np.random.default_rng(7)
        a, b = random_amplitude_pair(rng)
        _, corrected = phaseflip_syndrome_and_correct(
            apply_gate(phaseflip_encode(a, b), "Z", 3), rng
        )
        back = hadamard_all(corrected)
        assert fidelity(back, bitflip_encode(a, b)) == pytest.approx(1.0, abs=1e-9)


class TestShorCode:
    def test_zero_logical_pattern(self):
        state = shor_encode(1, 0)
        amp = 1 / (2 * np.sqrt(2))
        support = {
            format(i, "09b"): a for i, a in enumerate(state.amps) if abs(a) > 1e-12
        }
        assert len(support) == 8
        for ket, a in support.items():
            assert all(ket[3 * b : 3 * b + 3] in ("000", "111") for b in range(3))
            assert a == pytest.approx(amp)

    def test_one_logical_signs(self):
        state = shor_encode(0, 1)
        amp = 1 / (2 * np.sqrt(2))
        for i, a in enumerate(state.amps):
            if abs(a) < 1e-12:
                continue
            ket = format(i, "09b")
            ones_blocks = sum(ket[3 * b : 3 * b + 3] == "111" for b in range(3))
            assert a == pytest.approx(amp * (-1) ** ones_blocks)

    def test_block_flip_support(self):
        state = apply_gate(shor_encode(1, 0), "X", 4)
        for i, a in enumerate(state.amps):
            if abs(a) > 1e-12:
                assert format(i, "09b")[3:6] in ("100", "011")

    def test_phase_flips_within_block_indistinguishable(self):
        base = shor_encode(0.6, 0.8)
        z4 = apply_gate(base, "Z", 4)
        z5 = apply_gate(base, "Z", 5)
        z6 = apply_gate(base, "Z", 6)
        assert fidelity(z4, z5) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(z5, z6) == pytest.approx(1.0, abs=1e-12)

    def test_no_error_identity(self):
        rng = np.random.default_rng(8)
        clean = shor_encode(0.6, 0.8)
        syndrome, corrected = shor_correct(clean, rng)
        assert syndrome.flipped_qubits == () and syndrome.phase_block == 0
        assert fidelity(corrected, clean) == pytest.approx(1.0, abs=1e-9)

    def test_combined_error_same_qubit(self):
        rng = np.random.default_rng(9)
        clean = shor_encode(0.6, 0.8)
        corrupted = apply_gate(apply_gate(clean, "Z", 4), "X", 4)
        syndrome, corrected = shor_correct(corrupted, rng)
        assert 4 in syndrome.flipped_qubits and syndrome.phase_block == 2
        assert fidelity(corrected, clean) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("qubit", range(1, 10))
    def test_every_single_x_and_z(self, qubit):
        rng = np.random.default_rng(10 + qubit)
        clean = shor_encode(0.6, 0.8)
        for gate in ("X", "Z"):
            _, corrected = shor_correct(apply_gate(clean, gate, qubit), rng)
            assert fidelity(corrected, clean) == pytest.approx(1.0, abs=1e-9)

    def test_random_unitaries_corrected(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a, b = random_amplitude_pair(rng)
            clean = shor_encode(a, b)
            error = random_error(rng, qubit=int(rng.integers(1, 10)))
            _, corrected = shor_correct(apply_error(clean, error), rng)
            assert fidelity(corrected, clean) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("correct", [
    bitflip_syndrome_and_correct, phaseflip_syndrome_and_correct, shor_correct,
])
def test_wrong_size_state_rejected(correct):
    with pytest.raises(ValueError, match="Pauli string length"):
        correct(basis_state(BV("0000")), np.random.default_rng(0))


# The (kind, n, width, offset) of each _repetition_round a correction makes.
ROUNDS = {
    "bitflip": (bitflip_encode, [("Z", 3, 1, 0)]),
    "phaseflip": (phaseflip_encode, [("X", 3, 1, 0)]),
    "shor": (shor_encode, [("Z", 9, 1, 0), ("Z", 9, 1, 3), ("Z", 9, 1, 6), ("X", 9, 3, 0)]),
}


@pytest.mark.parametrize("code", sorted(ROUNDS))
def test_repetition_round_measures_as_two_single_row_calls(code, monkeypatch):
    """Each round measures its two rows in one measure_paulis call: the same
    eigenvalues, dense amplitude bytes and generator state as one call per
    row, on the clean codeword and after every single-qubit X, Z and
    Haar-random error."""
    encode, rounds = ROUNDS[code]
    measured = []

    def recording(state, paulis, rng):
        eigenvalues, out = measure_paulis(state, paulis, rng)
        measured.append((eigenvalues, out.amps.tobytes(), rng.bit_generator.state))
        return eigenvalues, out

    monkeypatch.setattr(qec3, "measure_paulis", recording)
    clean = encode(0.6, 0.8j)
    errors = np.random.default_rng(40)
    states = [clean] + [
        apply_gate(clean, gate, qubit) if gate else apply_error(clean, random_error(errors, qubit))
        for gate in ("X", "Z", None) for qubit in range(1, clean.n + 1)
    ]
    for seed, state in enumerate(states):
        rng = np.random.default_rng(seed)
        for kind, n, width, offset in rounds:
            assert state._index is None
            row = BitVector((1 << 2 * width) - 1, 2 * width)
            twin, want, values = copy.deepcopy(rng), state, []
            for start in (offset, offset + width):
                (value,), want = measure_paulis(want, [pauli_row(row, kind, n, start)], twin)
                values.append(value)
            _, state = qec3._repetition_round(state, rng, kind, n, width, offset)
            assert measured.pop() == (values, want.amps.tobytes(), twin.bit_generator.state), (seed, offset)


class TestArbitraryError:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            ArbitraryError(t=1.0, u=1.0, v=0.0, w=0.0, qubit=1)

    def test_rotation_matrix(self):
        err = rotation_error(np.pi / 4, qubit=1)
        expected = np.cos(np.pi / 4) * np.eye(2) + 1j * np.sin(np.pi / 4) * np.array(
            [[0, 1], [1, 0]]
        )
        assert np.allclose(err.matrix(), expected)

    @pytest.mark.parametrize("t, u, unitary", [
        # The diagonal of m^H m may miss 1 by ATOL + 1e-5 |1|, numpy's
        # default rtol on top of ATOL ...
        (np.sqrt(1 + 1.0000e-5), 0.0, True),
        (np.sqrt(1 + 1.0002e-5), 0.0, False),
        # ... and the off-diagonal 2tu may miss 0 by ATOL alone.
        (1.0, 0.4e-9, True),
        (1.0, 0.6e-9, False),
    ])
    def test_unitarity_tolerance_boundary(self, t, u, unitary):
        m = t * np.eye(2) + u * np.array([[0, 1], [1, 0]])
        assert np.allclose(m.conj().T @ m, np.eye(2), atol=ATOL) == unitary
        if unitary:
            ArbitraryError(t=t, u=u, v=0.0, w=0.0, qubit=1)
        else:
            with pytest.raises(ValueError, match="unitary"):
                ArbitraryError(t=t, u=u, v=0.0, w=0.0, qubit=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    @pytest.mark.parametrize("field", ["t", "u", "v", "w"])
    def test_non_finite_rejected(self, bad, field):
        coefficients = {"t": 1.0, "u": 0.0, "v": 0.0, "w": 0.0, field: bad}
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unitary"):
            ArbitraryError(**coefficients, qubit=1)

    def test_matrix_is_the_pauli_sum(self):
        """t I + u X + v Y + w Z with all four terms nonzero, written out
        entry by entry: [[t + w, u - i v], [u + i v, t - w]]."""
        theta, (nx, ny, nz) = 0.7, (0.48, 0.6, 0.64)  # a unit axis
        t, u, v, w = np.cos(theta), *(1j * np.sin(theta) * c for c in (nx, ny, nz))
        expected = np.array([[t + w, u - 1j * v], [u + 1j * v, t - w]])
        got = ArbitraryError(t=t, u=u, v=v, w=w, qubit=1).matrix()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_matrix_built_once_and_read_only(self):
        err = rotation_error(0.3, qubit=2)
        assert err.matrix() is err.matrix()
        assert not err.matrix().flags.writeable
        state = apply_error(bitflip_encode(0.6, 0.8), err)
        assert np.allclose(state.amps[[0b000, 0b010, 0b101, 0b111]],
                           [0.6 * np.cos(0.3), 0.6j * np.sin(0.3),
                            0.8j * np.sin(0.3), 0.8 * np.cos(0.3)])

    def test_random_errors_unitary(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_error(rng, qubit=1).matrix()
            assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-9)
