import tracemalloc

import numpy as np
import pytest

from qkdforge.distill import create_epr
from qkdforge.gf2 import BitVector
from qkdforge.qsim import (
    ATOL,
    GATES,
    MAX_AMPLITUDES,
    PauliString,
    StateVector,
    apply_cnot,
    apply_gate,
    apply_matrix,
    apply_pauli_string,
    basis_state,
    fidelity,
    hadamard_all,
    measure_all_z,
    measure_paulis,
    overlap,
    pauli_row,
    support,
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

    def test_qubit_count_checked_before_allocation(self):
        # A 40-qubit ket is a one-ket support, but its dense read would need
        # 2^40 amplitudes (16 TiB); 2^20 + 1 kets are one over the budget.
        # Each raises with nothing of its size allocated.
        ket, index = basis_state(BitVector.zeros(40)), np.arange(MAX_AMPLITUDES + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="qubit count must be in 1..20, got 40"):
                ket.amps
            with pytest.raises(ValueError, match="1048577 kets on 21 qubits are over"):
                StateVector._scatter(21, index, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestOwnership:
    """The public constructor copies what it is given; kernels hand their
    fresh arrays to StateVector._adopt, which checks them the same way."""

    def test_caller_writes_do_not_reach_the_state(self):
        amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        psi = StateVector(n=2, amps=amps)
        amps[:] = [0.0, 0.0, 0.0, 1.0]
        assert psi.amps.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert psi.amps is not amps and not psi.amps.flags.writeable

    def test_every_kernel_output_is_read_only(self):
        rng = np.random.default_rng(21)
        psi = random_state(rng, 3)
        outputs = [
            basis_state(BV("101")),
            apply_gate(psi, "H", 2),
            apply_matrix(psi, GATES["Y"], 3),
            apply_cnot(psi, 1, 3),
            apply_pauli_string(psi, PauliString("XYZ")),
            hadamard_all(psi),
            measure_paulis(psi, [PauliString("ZZI")], rng)[1],
            measure_paulis(psi, [PauliString("III")], rng)[1],
            measure_all_z(psi, rng)[1],
            create_epr(2),
            apply_pauli_string(create_epr(2), PauliString("XYZI")),
            measure_paulis(create_epr(2), [PauliString("ZIZI")], rng)[1],
            measure_paulis(create_epr(2), [PauliString("XIII")], rng)[1],
        ]
        on_support = [out for out in outputs if out._index is not None]
        assert len(on_support) == 6  # basis states, the EPR state and its Pauli outputs
        for out in outputs:
            arrays = [out.amps] if out._index is None else [out._index, out._values, out.amps]
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_adopt_checks_like_the_constructor(self):
        good = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        adopted = StateVector._adopt(2, good)
        assert adopted.amps is good and not good.flags.writeable
        off = np.array([1.0 + 2 * ATOL, 0.0, 0.0, 0.0], dtype=complex)
        nan = np.array([np.nan, 0.0], dtype=complex)
        cases = ((2, off), (3, good.copy()), (1, good.copy()), (0, good.copy()), (1, nan))
        for n, amps in cases:
            with pytest.raises(ValueError):
                StateVector(n=n, amps=amps)
            with pytest.raises(ValueError):
                StateVector._adopt(n, amps)
        for values in ([1.0, 1.0], [np.nan, 0.0]):  # a support is checked on its values
            with pytest.raises(ValueError):
                StateVector._scatter(2, [0, 3], values)

    def test_scatter_takes_one_value_or_one_per_index(self):
        third = 1 / np.sqrt(3)
        for values in (third, [third], np.full(3, third)):
            state = StateVector._scatter(2, [2, 0, 1], values)
            assert state._index.tolist() == [0, 1, 2]
            assert np.array_equal(state._values, np.full(3, third, dtype=complex))
        for count in (0, 2, 4):
            with pytest.raises(ValueError):
                StateVector._scatter(2, [0, 1, 2], np.full(count, third))


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

    def test_bad_name_reported_before_bad_qubit(self):
        # The name is looked up first; apply_matrix then checks the qubit.
        with pytest.raises(ValueError, match="unknown gate 'Q'"):
            apply_gate(basis_state(BV("00")), "Q", 3)
        with pytest.raises(ValueError, match="qubit index 3 out of range 1..2"):
            apply_gate(basis_state(BV("00")), "X", 3)


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

    def test_pauli_row_masks_match_the_parsed_string(self):
        cases = [
            (BV("101"), 7, 2), (BV("1"), 1, 0), (BV("0110"), 4, 0), (BV("11"), 5, 3),
            (BV("000"), 4, 1), (BV("1011001"), 14, 7), ((1, 0, 1), 5, 1), ((1, 1), None, 0),
        ]
        for row, n, offset in cases:
            bits = "".join(map(str, row))
            width = offset + len(bits) if n is None else n
            for kind in ("X", "Z"):
                spelled = bits.replace("0", "I").replace("1", kind)
                expected = PauliString(
                    "I" * offset + spelled + "I" * (width - offset - len(bits)))
                got = pauli_row(row, kind, n, offset)
                assert (got.factors, got.x, got.z) == (expected.factors, expected.x, expected.z)
                assert got == expected and hash(got) == hash(expected)

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

    def test_hadamard_basis_detects_phase_flip(self):
        # a|+-+> + b|-+->: phase flip on the second qubit.
        psi = apply_gate(hadamard_all(state_from({"000": 0.6, "111": 0.8})), "Z", 2)
        # The sign projector: the bit-flip projector onto {010, 101}
        # conjugated by hadamard_all.
        frame = hadamard_all(psi)
        flipped = [0b010, 0b101]
        assert np.sum(np.abs(frame.amps[flipped]) ** 2) == pytest.approx(1.0)
        projected = np.zeros(8, dtype=complex)
        projected[flipped] = frame.amps[flipped]
        out = StateVector(n=3, amps=projected / np.linalg.norm(projected))
        assert fidelity(hadamard_all(out), psi) == pytest.approx(1.0)


class FixedDraw:
    """A generator whose every uniform is r; counts the draws."""

    def __init__(self, r):
        self.r, self.draws = r, 0

    def random(self):
        self.draws += 1
        return self.r


class TestMeasurePauliObservable:
    @pytest.mark.parametrize(
        "factors, kets, r, eigenvalue",
        [
            # X|-> = -|->, but round-off leaves p_plus = 1.1e-16 > 0.0.
            ("X", {"0": 1.0, "1": -1.0}, 0.0, -1),
            # XI|+>|1> = |+>|1>, but round-off leaves p_plus just below 1.
            ("XI", {"01": 1.0, "11": 1.0}, float(np.nextafter(1.0, 0.0)), 1),
        ],
    )
    def test_draw_on_a_massless_branch_takes_the_other(self, factors, kets, r, eigenvalue):
        psi = state_from(kets)
        rng = FixedDraw(r)
        (value,), out = measure_paulis(psi, [PauliString(factors)], rng)
        assert rng.draws == 1
        assert value == eigenvalue
        assert np.all(np.isfinite(out.amps))
        assert fidelity(out, psi) == pytest.approx(1.0, abs=ATOL)

    def test_flipped_second_qubit_pattern(self):
        rng = np.random.default_rng(12)
        psi = state_from({"010": 0.6, "101": 0.8})
        (g1, g2), psi = measure_paulis(psi, [PauliString("ZZI"), PauliString("IZZ")], rng)
        assert (g1, g2) == (-1, -1)

    def test_eigenstate_deterministic_and_unchanged(self):
        rng = np.random.default_rng(13)
        psi = state_from({"0000": 1.0, "1111": -1.0})
        for _ in range(5):
            (value,), out = measure_paulis(psi, [PauliString("XXXX")], rng)
            assert value == -1
            assert fidelity(out, psi) == pytest.approx(1.0)

    def test_collapse_probabilities(self):
        rng = np.random.default_rng(14)
        plus = apply_gate(basis_state(BV("0")), "H", 1)
        counts = {1: 0, -1: 0}
        trials = 10_000
        for _ in range(trials):
            (value,), _ = measure_paulis(plus, [PauliString("Z")], rng)
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

    def test_merge_over_the_budget_raises_before_concatenating(self, monkeypatch):
        # X on qubit 1 maps the kets 0 .. 2^m - 1 of 21 qubits off themselves,
        # so the collapse merges the support with its image: 2^20 kets are
        # exactly the budget, 2^21 are over it and raise before the merge
        # is built or the draw is made.
        flip = PauliString("X" + "I" * 20)
        half = StateVector._scatter(21, np.arange(MAX_AMPLITUDES // 2), 2**-9.5)
        (_,), merged = measure_paulis(half, (flip,), FixedDraw(0.0))
        assert merged._index.size == MAX_AMPLITUDES
        full = StateVector._scatter(21, np.arange(MAX_AMPLITUDES), 2**-10)

        def concatenate(*args, **kwargs):
            raise AssertionError("the merge was built")

        monkeypatch.setattr(np, "concatenate", concatenate)
        rng = FixedDraw(0.0)
        with pytest.raises(ValueError, match="2097152 kets on 21 qubits are over"):
            measure_paulis(full, (flip,), rng)
        assert rng.draws == 0


def observable_projector(factors, eigenvalue):
    """Oracle: the dense projector (I +/- P)/2 from Kronecker products."""
    pauli = np.array([[1.0]], dtype=complex)
    for f in factors:
        pauli = np.kron(pauli, GATES.get(f, np.eye(2)))
    return (np.eye(len(pauli)) + eigenvalue * pauli) / 2


class TestSyndromeObservables:
    """The 3-qubit syndromes read as Pauli observables: Z1Z2 and Z2Z3
    for bit flips, X1X2 and X2X3 for phase flips."""

    def test_definite_outcome_state_undisturbed(self):
        rng = np.random.default_rng(6)
        psi = state_from({"100": 0.6, "011": 0.8})
        (g1, g2), out = measure_paulis(psi, [PauliString("ZZI"), PauliString("IZZ")], rng)
        assert (g1, g2) == (-1, 1)  # the first qubit flipped
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
        # Exact joint probabilities from the dense projector oracle.
        p = {
            (g1, g2): float(np.real(
                psi.amps.conj()
                @ observable_projector("IZZ", g2)
                @ observable_projector("ZZI", g1)
                @ psi.amps
            ))
            for g1 in (1, -1)
            for g2 in (1, -1)
        }
        assert p[1, 1] == pytest.approx(np.cos(theta) ** 2)
        assert p[1, -1] == pytest.approx(np.sin(theta) ** 2)
        assert p[-1, 1] == pytest.approx(0.0) and p[-1, -1] == pytest.approx(0.0)
        flipped = state_from({"001": a, "110": b})
        counts = dict.fromkeys(p, 0)
        trials = 10_000
        rng = np.random.default_rng(7)
        for _ in range(trials):
            (g1, g2), out = measure_paulis(psi, [PauliString("ZZI"), PauliString("IZZ")], rng)
            counts[g1, g2] += 1
            if (g1, g2) == (1, -1):
                assert fidelity(out, flipped) == pytest.approx(1.0)
        for key, prob in p.items():
            sigma = np.sqrt(trials * prob * (1 - prob))
            assert abs(counts[key] - trials * prob) <= 3 * sigma + 1e-9

    def test_epr_parity_observables(self):
        rng = np.random.default_rng(8)
        epr = state_from({"00": 1.0, "11": 1.0})
        for factors in ("ZZ", "XX", "ZZ"):
            (value,), out = measure_paulis(epr, [PauliString(factors)], rng)
            assert value == 1
            assert fidelity(out, epr) == pytest.approx(1.0)

    def test_phase_flip_located_by_x_observables(self):
        rng = np.random.default_rng(9)
        # a|+-+> + b|-+->: phase flip on the second qubit.
        psi = apply_gate(hadamard_all(state_from({"000": 0.6, "111": 0.8})), "Z", 2)
        (g1, g2), out = measure_paulis(psi, [PauliString("XXI"), PauliString("IXX")], rng)
        assert (g1, g2) == (-1, -1)
        assert fidelity(out, psi) == pytest.approx(1.0)


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


def test_support_is_index_ordered_complex_and_cut_at_1e_12():
    amps = np.zeros(8, dtype=complex)
    amps[[6, 1, 3, 5]] = [0.6j, -0.8, 1e-12, 2e-12]  # |1e-12| is not above the cut
    kets = support(StateVector(n=3, amps=amps))
    assert list(kets) == ["001", "101", "110"]
    assert kets == {"001": -0.8 + 0j, "101": 2e-12 + 0j, "110": 0.6j}
    assert all(type(a) is complex for a in kets.values())

