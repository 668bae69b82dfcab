import json

import numpy as np
import pytest

from qkdforge.gf2 import BitVector
from qkdforge.qsim import (
    GATES,
    BasisProjector,
    PauliString,
    StateVector,
    amplitudes_json,
    apply_cnot,
    apply_gate,
    apply_pauli_string,
    basis_state,
    fidelity,
    hadamard_all,
    measure_all_z,
    measure_pauli_observable,
    measure_projective,
    overlap,
    pauli_row,
)

BV = BitVector.from_string
SQRT_HALF = 1 / np.sqrt(2)


def state_from(parts):
    """Build a normalized state from {ket string: amplitude}."""
    n = len(next(iter(parts)))
    amps = np.zeros(2**n, dtype=complex)
    for ket, amp in parts.items():
        amps[int(ket, 2)] = amp
    return StateVector(n=n, amps=amps / np.linalg.norm(amps))


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n=n, amps=amps / np.linalg.norm(amps))


class TestBasisState:
    def test_two_qubit_kets(self):
        assert np.allclose(basis_state(BV("00")).amps, [1, 0, 0, 0])
        assert np.allclose(basis_state(BV("11")).amps, [0, 0, 0, 1])

    def test_orthonormality(self):
        for i in range(8):
            for j in range(8):
                a = basis_state(BV(format(i, "03b")))
                b = basis_state(BV(format(j, "03b")))
                assert overlap(a, b) == pytest.approx(1.0 if i == j else 0.0)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            StateVector(n=1, amps=np.array([1.0, 1.0]))


class TestSingleQubitGates:
    def test_x_flips(self):
        assert np.allclose(apply_gate(basis_state(BV("0")), "X", 1).amps, [0, 1])
        assert np.allclose(apply_gate(basis_state(BV("1")), "X", 1).amps, [1, 0])

    def test_z_phase(self):
        assert np.allclose(apply_gate(basis_state(BV("1")), "Z", 1).amps, [0, -1])
        assert np.allclose(apply_gate(basis_state(BV("0")), "Z", 1).amps, [1, 0])

    def test_hzh_equals_x(self):
        for ket in ("0", "1"):
            via_conjugation = basis_state(BV(ket))
            for gate in ("H", "Z", "H"):
                via_conjugation = apply_gate(via_conjugation, gate, 1)
            direct = apply_gate(basis_state(BV(ket)), "X", 1)
            assert np.allclose(via_conjugation.amps, direct.amps)

    def test_hxh_equals_z(self):
        for ket in ("0", "1"):
            via = basis_state(BV(ket))
            for gate in ("H", "X", "H"):
                via = apply_gate(via, gate, 1)
            direct = apply_gate(basis_state(BV(ket)), "Z", 1)
            assert np.allclose(via.amps, direct.amps)

    def test_pauli_anticommutation(self):
        rng = np.random.default_rng(0)
        for a, b in (("X", "Y"), ("Y", "Z"), ("Z", "X")):
            psi = random_state(rng, 1)
            ab = apply_gate(apply_gate(psi, b, 1), a, 1)
            ba = apply_gate(apply_gate(psi, a, 1), b, 1)
            assert np.allclose(ab.amps + ba.amps, 0.0, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = random_state(rng, 4)
            gate = ("X", "Y", "Z", "H")[int(rng.integers(4))]
            qubit = int(rng.integers(1, 5))
            out = apply_gate(psi, gate, qubit)
            assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-9)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(BV("00")), "X", 3)
        with pytest.raises(ValueError):
            apply_gate(basis_state(BV("00")), "Q", 1)


class TestCnot:
    def test_truth_table(self):
        assert np.allclose(apply_cnot(basis_state(BV("10")), 1, 2).amps, [0, 0, 0, 1])
        assert np.allclose(apply_cnot(basis_state(BV("01")), 1, 2).amps, [0, 1, 0, 0])
        assert np.allclose(apply_cnot(basis_state(BV("00")), 1, 2).amps, [1, 0, 0, 0])
        assert np.allclose(apply_cnot(basis_state(BV("11")), 1, 2).amps, [0, 0, 1, 0])

    def test_self_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            psi = random_state(rng, 3)
            control, target = 2, 3
            out = apply_cnot(apply_cnot(psi, control, target), control, target)
            assert np.allclose(out.amps, psi.amps)

    def test_reversed_order_indices(self):
        # target below control exercises the axis bookkeeping
        psi = basis_state(BV("01"))
        assert np.allclose(apply_cnot(psi, 2, 1).amps, basis_state(BV("11")).amps)

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_cnot(basis_state(BV("00")), 1, 1)


class TestPauliStrings:
    def test_identity_string(self):
        rng = np.random.default_rng(3)
        psi = random_state(rng, 3)
        assert np.allclose(apply_pauli_string(psi, PauliString("III")).amps, psi.amps)

    def test_identity_string_returns_the_same_state(self):
        psi = random_state(np.random.default_rng(5), 4)
        assert apply_pauli_string(psi, PauliString("IIII")) is psi
        assert apply_pauli_string(psi, pauli_row(BV("000"), "X", 4, 1)) is psi
        with pytest.raises(ValueError):
            apply_pauli_string(psi, PauliString("III"))

    def test_zz_parity_phase(self):
        same = state_from({"001": 1.0})
        assert np.allclose(
            apply_pauli_string(same, PauliString("ZZI")).amps, same.amps
        )
        differ = state_from({"011": 1.0})
        assert np.allclose(
            apply_pauli_string(differ, PauliString("ZZI")).amps, -differ.amps
        )

    def test_zzzz_eigenvalue(self):
        psi = state_from({"1000": 1.0, "0111": 1.0})
        out = apply_pauli_string(psi, PauliString("ZZZZ"))
        assert np.allclose(out.amps, -psi.amps)

    def test_y_phase_tracking(self):
        up = basis_state(BV("0"))
        out = apply_pauli_string(up, PauliString("Y"))
        assert np.allclose(out.amps, [0, 1j])

    def test_pauli_row_placement(self):
        assert pauli_row(BV("101"), "X", 7, 2).factors == "IIXIXII"
        assert pauli_row(BV("11"), "Z", offset=1).factors == "IZZ"
        assert pauli_row((1, 1), "Z", 4).factors == "ZZII"
        for n, offset in ((4, 3), (9, -1)):
            with pytest.raises(ValueError):
                pauli_row(BV("11"), "Z", n, offset)

    def test_pattern_string_matches_gate_loop(self):
        """One Pauli string per pattern gives exactly the amplitudes of
        one apply_gate per flagged qubit, in the same order."""
        rng = np.random.default_rng(4)
        psi = random_state(rng, 6)
        for _ in range(10):
            pattern = BitVector.from_ints(rng.integers(0, 2, size=4))
            for kind in ("X", "Z"):
                looped = psi
                for i, bit in enumerate(pattern):
                    if bit:
                        looped = apply_gate(looped, kind, 2 + i + 1)
                one = apply_pauli_string(psi, pauli_row(pattern, kind, 6, 2))
                assert np.array_equal(one.amps, looped.amps)

    def test_length_check(self):
        with pytest.raises(ValueError):
            apply_pauli_string(basis_state(BV("00")), PauliString("ZZZ"))
        with pytest.raises(ValueError):
            PauliString("ZA")


class TestHadamardAll:
    def test_uniform_superposition(self):
        out = hadamard_all(basis_state(BV("000")))
        assert np.allclose(out.amps, np.full(8, 1 / np.sqrt(8)))

    def test_self_inverse(self):
        rng = np.random.default_rng(4)
        psi = random_state(rng, 4)
        assert np.allclose(hadamard_all(hadamard_all(psi)).amps, psi.amps, atol=1e-9)

    def test_matches_per_qubit_hadamards(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5):
            psi = random_state(rng, n)
            fast = hadamard_all(psi)
            slow = psi
            for q in range(1, n + 1):
                slow = apply_gate(slow, "H", q)
            assert np.allclose(fast.amps, slow.amps, atol=1e-12)

    def test_odd_parity_expansion(self):
        # H^(x)4 of (|0000> - |1111>)/sqrt(2): uniform over odd-weight kets.
        psi = state_from({"0000": 1.0, "1111": -1.0})
        out = hadamard_all(psi)
        for i, amp in enumerate(out.amps):
            weight = bin(i).count("1")
            if weight % 2:
                assert amp == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)
            else:
                assert amp == pytest.approx(0.0, abs=1e-12)


BITFLIP_PROJECTORS = [
    BasisProjector(kets=frozenset({"000", "111"})),
    BasisProjector(kets=frozenset({"100", "011"})),
    BasisProjector(kets=frozenset({"010", "101"})),
    BasisProjector(kets=frozenset({"001", "110"})),
]


def projector_matrix(projector, n):
    """Oracle: dense matrix of the projector via explicit outer products."""
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    h = GATES["H"]
    full_h = np.array([[1.0]])
    for _ in range(n):
        full_h = np.kron(full_h, h)
    for ket in projector.kets:
        e = np.zeros(dim)
        e[int(ket, 2)] = 1.0
        mat += np.outer(e, e)
    if projector.basis == "hadamard":
        mat = full_h @ mat @ full_h
    return mat


class TestMeasureProjective:
    def test_definite_outcome_state_undisturbed(self):
        rng = np.random.default_rng(6)
        psi = state_from({"100": 0.6, "011": 0.8})
        record, out = measure_projective(psi, BITFLIP_PROJECTORS, rng)
        assert record.outcome == 1
        assert record.probability == pytest.approx(1.0)
        assert fidelity(out, psi) == pytest.approx(1.0)

    def test_rotation_probabilities(self):
        theta = np.pi / 6
        a, b = 0.6, 0.8
        psi = state_from(
            {
                "000": a * np.cos(theta),
                "001": a * 1j * np.sin(theta),
                "111": b * np.cos(theta),
                "110": b * 1j * np.sin(theta),
            }
        )
        # Exact probabilities from the dense projector oracle.
        p = [
            float(np.real(psi.amps.conj() @ projector_matrix(proj, 3) @ psi.amps))
            for proj in BITFLIP_PROJECTORS
        ]
        assert p[0] == pytest.approx(np.cos(theta) ** 2)
        assert p[3] == pytest.approx(np.sin(theta) ** 2)
        assert p[1] == pytest.approx(0.0) and p[2] == pytest.approx(0.0)
        counts = [0, 0, 0, 0]
        trials = 10_000
        rng = np.random.default_rng(7)
        for _ in range(trials):
            record, _ = measure_projective(psi, BITFLIP_PROJECTORS, rng)
            counts[record.outcome] += 1
        for i in range(4):
            sigma = np.sqrt(trials * p[i] * (1 - p[i]))
            assert abs(counts[i] - trials * p[i]) <= 3 * sigma + 1e-9

    def test_epr_parity_projector(self):
        rng = np.random.default_rng(8)
        epr = state_from({"00": 1.0, "11": 1.0})
        projectors = [
            BasisProjector(kets=frozenset({"00", "11"})),
            BasisProjector(kets=frozenset({"01", "10"})),
        ]
        record, out = measure_projective(epr, projectors, rng)
        assert record.outcome == 0
        assert record.probability == pytest.approx(1.0)
        assert fidelity(out, epr) == pytest.approx(1.0)

    def test_hadamard_basis_detects_phase_flip(self):
        rng = np.random.default_rng(9)
        # a|+-+> + b|-+->: phase flip on the second qubit.
        psi = apply_gate(hadamard_all(state_from({"000": 0.6, "111": 0.8})), "Z", 2)
        sign_projectors = [
            BasisProjector(kets=frozenset({"000", "111"}), basis="hadamard"),
            BasisProjector(kets=frozenset({"100", "011"}), basis="hadamard"),
            BasisProjector(kets=frozenset({"010", "101"}), basis="hadamard"),
            BasisProjector(kets=frozenset({"001", "110"}), basis="hadamard"),
        ]
        record, out = measure_projective(psi, sign_projectors, rng)
        assert record.outcome == 2
        assert fidelity(out, psi) == pytest.approx(1.0)

    def test_incomplete_set_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            measure_projective(basis_state(BV("00")), [
                BasisProjector(kets=frozenset({"00"})),
                BasisProjector(kets=frozenset({"01"})),
            ], rng)

    def test_overlapping_set_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            measure_projective(basis_state(BV("0")), [
                BasisProjector(kets=frozenset({"0", "1"})),
                BasisProjector(kets=frozenset({"1"})),
            ], rng)


class TestMeasurePauliObservable:
    def test_flipped_second_qubit_pattern(self):
        rng = np.random.default_rng(12)
        psi = state_from({"010": 0.6, "101": 0.8})
        g1, psi = measure_pauli_observable(psi, PauliString("ZZI"), rng)
        g2, psi = measure_pauli_observable(psi, PauliString("IZZ"), rng)
        assert (g1, g2) == (-1, -1)

    def test_eigenstate_deterministic_and_unchanged(self):
        rng = np.random.default_rng(13)
        psi = state_from({"0000": 1.0, "1111": -1.0})
        for _ in range(5):
            value, out = measure_pauli_observable(psi, PauliString("XXXX"), rng)
            assert value == -1
            assert fidelity(out, psi) == pytest.approx(1.0)

    def test_collapse_probabilities(self):
        rng = np.random.default_rng(14)
        plus = apply_gate(basis_state(BV("0")), "H", 1)
        counts = {1: 0, -1: 0}
        trials = 10_000
        for _ in range(trials):
            value, _ = measure_pauli_observable(plus, PauliString("Z"), rng)
            counts[value] += 1
        sigma = np.sqrt(trials * 0.25)
        assert abs(counts[1] - trials / 2) <= 3 * sigma

    def test_commuting_order_invariance(self):
        # Exact joint distributions for Z1Z2 then Z2Z3 vs the reverse.
        rng = np.random.default_rng(15)
        psi = random_state(rng, 3)

        def joint_distribution(first, second):
            dist = {}
            for g1 in (1, -1):
                p1_amps = (
                    psi.amps + g1 * apply_pauli_string(psi, first).amps
                ) / 2
                w1 = np.linalg.norm(p1_amps) ** 2
                if w1 < 1e-15:
                    continue
                mid = StateVector(n=3, amps=p1_amps / np.linalg.norm(p1_amps))
                for g2 in (1, -1):
                    p2_amps = (
                        mid.amps + g2 * apply_pauli_string(mid, second).amps
                    ) / 2
                    dist[(g1, g2)] = w1 * np.linalg.norm(p2_amps) ** 2
            return dist

        forward = joint_distribution(PauliString("ZZI"), PauliString("IZZ"))
        backward = joint_distribution(PauliString("IZZ"), PauliString("ZZI"))
        for key in set(forward) | set(backward):
            swapped = (key[1], key[0])
            assert forward.get(key, 0.0) == pytest.approx(
                backward.get(swapped, 0.0), abs=1e-9
            )


class TestMeasureAllZ:
    def test_basis_state_is_certain(self):
        rng = np.random.default_rng(16)
        bits, out = measure_all_z(basis_state(BV("0110")), rng)
        assert bits == BV("0110")
        assert fidelity(out, basis_state(BV("0110"))) == pytest.approx(1.0)

    def test_epr_statistics(self):
        rng = np.random.default_rng(17)
        epr = state_from({"00": 1.0, "11": 1.0})
        counts = {"00": 0, "11": 0}
        trials = 10_000
        for _ in range(trials):
            bits, _ = measure_all_z(epr, rng)
            assert str(bits) in counts  # never 01 / 10
            counts[str(bits)] += 1
        sigma = np.sqrt(trials * 0.25)
        assert abs(counts["00"] - trials / 2) <= 3 * sigma

    def test_coset_superposition_support(self):
        rng = np.random.default_rng(18)
        psi = state_from({"0000": 1.0, "1111": 1.0})
        for _ in range(50):
            bits, _ = measure_all_z(psi, rng)
            assert str(bits) in ("0000", "1111")


class TestOverlap:
    def test_self_overlap(self):
        rng = np.random.default_rng(19)
        psi = random_state(rng, 3)
        assert overlap(psi, psi) == pytest.approx(1.0)

    def test_orthogonal_codewords(self):
        q1 = state_from({"0000": 1.0, "1111": 1.0})
        q2 = state_from({"0011": 1.0, "1100": 1.0})
        assert abs(overlap(q1, q2)) == pytest.approx(0.0)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(20)
        psi = random_state(rng, 2)
        rotated = StateVector(n=2, amps=np.exp(1j * 0.7) * psi.amps)
        assert fidelity(psi, rotated) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            overlap(basis_state(BV("0")), basis_state(BV("00")))


def test_amplitudes_json():
    psi = state_from({"00": 1.0, "11": -1.0})
    entries = json.loads(amplitudes_json(psi))
    assert entries == [["00", SQRT_HALF, 0.0], ["11", -SQRT_HALF, 0.0]]
