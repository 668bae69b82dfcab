import numpy as np
import pytest

from qkdforge.codes import code_from_generator, key_from_coset, named_code
from qkdforge.css import (
    CssParams,
    css_bit_syndrome,
    css_build,
    css_codeword,
    css_correct,
    css_identify,
    css_phase_syndrome,
    css_phase_syndrome_hadamard,
    pauli_row,
    verify_basis_identities,
)
from qkdforge.gf2 import BitMatrix, BitVector
from qkdforge.qsim import (
    StateVector,
    apply_gate,
    apply_pauli_string,
    fidelity,
    measure_all_z,
    overlap,
)

BV = BitVector.from_string


@pytest.fixture(scope="module")
def parity_pair():
    c1 = named_code("parity4")
    return css_build(c1, c1.dual(), 0)


@pytest.fixture(scope="module")
def hamming_pair():
    c1 = named_code("hamming74")
    return css_build(c1, c1.dual(), 1)


def support(state, n):
    return {
        format(i, f"0{n}b"): a for i, a in enumerate(state.amps) if abs(a) > 1e-12
    }


def reference_codeword(code, v, x, z):
    """Independent construction of the parameterized codeword, from the
    enumerated subcode and the sign rule, bypassing css_codeword."""
    amps = np.zeros(2**code.n, dtype=complex)
    members = list(code.c2.codewords())
    for w in members:
        amps[int(str(v + w + x), 2)] += (-1) ** w.dot(z)
    return StateVector(n=code.n, amps=amps / np.sqrt(len(members)))


class TestBuild:
    def test_parity_pair(self, parity_pair):
        assert parity_pair.k == 2
        assert parity_pair.n == 4
        assert [str(r) for r in parity_pair.h1.rows] == ["1111"]
        assert [str(r) for r in parity_pair.h2.rows] == ["1111"]

    def test_hamming_pair(self, hamming_pair):
        assert hamming_pair.k == 1
        assert hamming_pair.h2.rows == hamming_pair.h1.rows
        assert len(hamming_pair.bit_table) == 8
        assert len(hamming_pair.phase_table) == 8

    def test_equal_codes_rejected(self):
        ham = named_code("hamming74")
        with pytest.raises(ValueError):
            css_build(ham, ham, 1)

    def test_nesting_violation_rejected(self):
        parity = named_code("parity4")
        odd = code_from_generator(BitMatrix.from_strings(["1110"]))
        with pytest.raises(ValueError):
            css_build(parity, odd, 0)

    def test_negative_t_rejected(self):
        ham = named_code("hamming74")
        with pytest.raises(ValueError, match="t_max must be nonnegative"):
            css_build(ham, ham.dual(), -1)

    def test_capacity_violation_rejected(self):
        parity = named_code("parity4")
        with pytest.raises(ValueError):
            css_build(parity, parity.dual(), 1)


class TestCodewords:
    def test_parity_quantum_codewords(self, parity_pair):
        amp = 1 / np.sqrt(2)
        expected = {
            "0000": {"0000", "1111"},
            "0011": {"0011", "1100"},
            "0101": {"0101", "1010"},
            "0110": {"0110", "1001"},
        }
        for v, kets in expected.items():
            got = support(css_codeword(parity_pair, BV(v)), 4)
            assert set(got) == kets
            assert all(a == pytest.approx(amp) for a in got.values())

    def test_hamming_quantum_codewords(self, hamming_pair):
        amp = 1 / np.sqrt(8)
        q1 = support(css_codeword(hamming_pair, BV("0000000")), 7)
        q2 = support(css_codeword(hamming_pair, BV("0001011")), 7)
        assert set(q1) == {
            "0000000", "1110100", "1101010", "0111001",
            "0011110", "1010011", "1001101", "0100111",
        }
        assert set(q2) == {
            "0001011", "1111111", "1100001", "0110010",
            "0010101", "1011000", "1000110", "0101100",
        }
        for table in (q1, q2):
            assert all(a == pytest.approx(amp) for a in table.values())

    def test_same_coset_same_codeword(self, parity_pair):
        a = css_codeword(parity_pair, BV("0011"))
        b = css_codeword(parity_pair, BV("1100"))
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_different_cosets_orthogonal(self, parity_pair):
        reps = ["0000", "0011", "0101", "0110"]
        states = [css_codeword(parity_pair, BV(v)) for v in reps]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(overlap(states[i], states[j])) < 1e-12

    def test_distinct_codeword_count(self, parity_pair, hamming_pair):
        for code in (parity_pair, hamming_pair):
            states = [
                css_codeword(code, v)
                for v in code.c1.codewords()
            ]
            unique = []
            for s in states:
                if not any(fidelity(s, u) > 1 - 1e-9 for u in unique):
                    unique.append(s)
            assert len(unique) == 2**code.k

    def test_non_codeword_rejected(self, parity_pair):
        with pytest.raises(ValueError):
            css_codeword(parity_pair, BV("0001"))

    def test_parameterized_matches_reference(self, parity_pair):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = list(parity_pair.c1.codewords())[int(rng.integers(8))]
            x = BitVector.from_ints(rng.integers(0, 2, size=4))
            z = BitVector.from_ints(rng.integers(0, 2, size=4))
            got = css_codeword(parity_pair, v, CssParams(x=x, z=z))
            want = reference_codeword(parity_pair, v, x, z)
            assert np.allclose(got.amps, want.amps)


class TestPauliRow:
    def test_all_z(self):
        assert pauli_row(BV("1111"), "Z").factors == "ZZZZ"

    def test_check_row(self):
        assert pauli_row(BV("1110100"), "Z").factors == "ZZZIZII"
        assert pauli_row(BV("1110100"), "X").factors == "XXXIXII"

    def test_zero_row(self):
        assert pauli_row(BitVector.zeros(5), "X").factors == "IIIII"

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            pauli_row(BV("11"), "Y")


class TestSyndromes:
    def test_parity_bit_flip(self, parity_pair):
        rng = np.random.default_rng(1)
        q1 = css_codeword(parity_pair, BV("0000"))
        corrupted = apply_gate(q1, "X", 1)
        syndrome, after = css_bit_syndrome(parity_pair, corrupted, rng)
        assert syndrome == BV("1")
        assert fidelity(after, corrupted) == pytest.approx(1.0)

    def test_clean_codeword_zero(self, parity_pair, hamming_pair):
        rng = np.random.default_rng(2)
        for code in (parity_pair, hamming_pair):
            clean = css_codeword(code, BitVector.zeros(code.n))
            s, _ = css_bit_syndrome(code, clean, rng)
            assert s.is_zero()
            s, _ = css_phase_syndrome(code, clean, rng)
            assert s.is_zero()

    def test_hamming_bit_flip_columns(self, hamming_pair):
        rng = np.random.default_rng(3)
        clean = css_codeword(hamming_pair, BV("0000000"))
        columns = ["110", "111", "101", "011", "100", "010", "001"]
        for qubit, column in enumerate(columns, start=1):
            s, _ = css_bit_syndrome(hamming_pair, apply_gate(clean, "X", qubit), rng)
            assert str(s) == column

    def test_parity_phase_flip(self, parity_pair):
        rng = np.random.default_rng(4)
        q1 = css_codeword(parity_pair, BV("0000"))
        s, _ = css_phase_syndrome(parity_pair, apply_gate(q1, "Z", 1), rng)
        assert s == BV("1")

    def test_hamming_phase_flip_columns(self, hamming_pair):
        rng = np.random.default_rng(5)
        clean = css_codeword(hamming_pair, BV("0000000"))
        columns = ["110", "111", "101", "011", "100", "010", "001"]
        for qubit, column in enumerate(columns, start=1):
            s, _ = css_phase_syndrome(hamming_pair, apply_gate(clean, "Z", qubit), rng)
            assert str(s) == column

    def test_shifted_syndrome_with_params(self, hamming_pair):
        rng = np.random.default_rng(6)
        x = BV("1010101")
        z = BV("0110011")
        state = css_codeword(hamming_pair, BV("0000000"), CssParams(x=x, z=z))
        s, state = css_bit_syndrome(hamming_pair, state, rng)
        assert s == hamming_pair.c1.syndrome(x)
        s2, _ = css_phase_syndrome(hamming_pair, state, rng)
        from qkdforge.gf2 import mat_apply

        assert s2 == mat_apply(hamming_pair.h2, z, side="right")

    def test_hadamard_path_agrees(self, hamming_pair):
        clean = css_codeword(hamming_pair, BV("0000000"))
        for qubit in range(1, 8):
            corrupted = apply_gate(clean, "Z", qubit)
            s_direct, _ = css_phase_syndrome(
                hamming_pair, corrupted, np.random.default_rng(7)
            )
            s_hadamard, after = css_phase_syndrome_hadamard(
                hamming_pair, corrupted, np.random.default_rng(7)
            )
            assert s_direct == s_hadamard
            assert fidelity(after, corrupted) == pytest.approx(1.0, abs=1e-9)

    def test_observables_commute_on_codeword_states(self, hamming_pair):
        clean = css_codeword(hamming_pair, BV("0001011"))
        corrupted = apply_gate(apply_gate(clean, "X", 2), "Z", 5)
        for state in (clean, corrupted):
            for zrow in hamming_pair.h1.rows:
                for xrow in hamming_pair.h2.rows:
                    zp = pauli_row(zrow, "Z")
                    xp = pauli_row(xrow, "X")
                    one = apply_pauli_string(apply_pauli_string(state, zp), xp)
                    two = apply_pauli_string(apply_pauli_string(state, xp), zp)
                    assert np.allclose(one.amps, two.amps, atol=1e-12)


class TestCorrect:
    def test_single_bit_flip_recovered(self, hamming_pair):
        rng = np.random.default_rng(8)
        clean = css_codeword(hamming_pair, BV("0001011"))
        result = css_correct(hamming_pair, apply_gate(clean, "X", 3), None, rng)
        assert result.status == "ok"
        assert result.x_correction == BV("0010000")
        assert fidelity(result.state, clean) == pytest.approx(1.0, abs=1e-9)

    def test_identity(self, hamming_pair):
        rng = np.random.default_rng(9)
        clean = css_codeword(hamming_pair, BV("0000000"))
        result = css_correct(hamming_pair, clean, None, rng)
        assert result.status == "ok"
        assert result.x_correction.is_zero() and result.z_correction.is_zero()
        assert fidelity(result.state, clean) == pytest.approx(1.0, abs=1e-9)

    def test_combined_same_qubit(self, hamming_pair):
        rng = np.random.default_rng(10)
        clean = css_codeword(hamming_pair, BV("0000000"))
        corrupted = apply_gate(apply_gate(clean, "Z", 6), "X", 6)
        result = css_correct(hamming_pair, corrupted, None, rng)
        assert result.status == "ok"
        assert fidelity(result.state, clean) == pytest.approx(1.0, abs=1e-9)

    def test_with_announced_params(self, hamming_pair):
        rng = np.random.default_rng(11)
        params = CssParams(x=BV("1100110"), z=BV("0011010"))
        clean = css_codeword(hamming_pair, BV("0001011"), params)
        corrupted = apply_gate(apply_gate(clean, "X", 5), "Z", 2)
        result = css_correct(hamming_pair, corrupted, params, rng)
        assert result.status == "ok"
        assert result.x_correction == BV("0000100")
        assert result.z_correction == BV("0100000")
        assert fidelity(result.state, clean) == pytest.approx(1.0, abs=1e-9)

    def test_uncorrectable_detected(self, parity_pair):
        rng = np.random.default_rng(12)
        q1 = css_codeword(parity_pair, BV("0000"))
        result = css_correct(parity_pair, apply_gate(q1, "X", 2), None, rng)
        assert result.status == "detected_uncorrectable"
        assert result.x_correction is None


class TestIdentify:
    def test_round_trip_all_cosets(self, parity_pair):
        for m in range(4):
            key = BV(format(m, "02b"))
            v = parity_pair.quotient.representative(key)
            assert css_identify(parity_pair, css_codeword(parity_pair, v)) == key

    def test_known_coset(self, hamming_pair):
        q2 = css_codeword(hamming_pair, BV("0001011"))
        expected = key_from_coset(hamming_pair.quotient, BV("0001011"))
        assert css_identify(hamming_pair, q2) == expected

    def test_corrected_state_identified(self, hamming_pair):
        rng = np.random.default_rng(13)
        clean = css_codeword(hamming_pair, BV("0001011"))
        result = css_correct(hamming_pair, apply_gate(clean, "X", 7), None, rng)
        assert css_identify(hamming_pair, result.state) == key_from_coset(
            hamming_pair.quotient, BV("0001011")
        )

    def test_non_codeword_rejected(self, parity_pair):
        from qkdforge.qsim import basis_state

        with pytest.raises(ValueError):
            css_identify(parity_pair, basis_state(BV("0001")))


class TestBasisIdentities:
    def test_parity_pair_passes(self, parity_pair):
        report = verify_basis_identities(
            parity_pair,
            [BV("0000"), BV("0001")],
            [BV("0000"), BV("0001")],
        )
        assert report.states == 16
        assert report.orthonormality_deviation <= 1e-9
        assert report.phase_branch_deviation <= 1e-9
        assert report.completeness_deviation <= 1e-9

    def test_wrong_x_count_rejected(self, parity_pair):
        with pytest.raises(ValueError):
            verify_basis_identities(parity_pair, [BV("0000")], [BV("0000"), BV("0001")])

    def test_same_coset_x_rejected(self, parity_pair):
        with pytest.raises(ValueError):
            verify_basis_identities(
                parity_pair,
                [BV("0000"), BV("0011")],  # 0011 is in C1
                [BV("0000"), BV("0001")],
            )

    def test_overlap_branches(self, parity_pair):
        # z inside the dual of C2 leaves the state unchanged; outside it
        # produces an orthogonal state.
        v, x = BV("0000"), BV("0001")
        base = css_codeword(parity_pair, v, CssParams(x=x, z=BV("0000")))
        inside = css_codeword(parity_pair, v, CssParams(x=x, z=BV("0011")))
        outside = css_codeword(parity_pair, v, CssParams(x=x, z=BV("0001")))
        assert overlap(inside, base) == pytest.approx(1.0)
        assert abs(overlap(outside, base)) == pytest.approx(0.0)


class TestMixedStateSampling:
    def test_outcome_distribution_uniform_over_coset(self, parity_pair):
        # Fixed v, x; averaging over all 16 phase patterns z, computational
        # measurement outcomes are uniform over the shifted coset.
        rng = np.random.default_rng(14)
        v, x = BV("0011"), BV("0100")
        coset = {str(v + w + x) for w in parity_pair.c2.codewords()}
        assert len(coset) == 2
        z_values = [BV(format(m, "04b")) for m in range(16)]
        states = [
            css_codeword(parity_pair, v, CssParams(x=x, z=z)) for z in z_values
        ]
        counts = {ket: 0 for ket in coset}
        trials = 10_000
        for _ in range(trials):
            state = states[int(rng.integers(16))]
            bits, _ = measure_all_z(state, rng)
            counts[str(bits)] += 1
        p = 1 / len(coset)
        sigma = np.sqrt(trials * p * (1 - p))
        for ket in coset:
            assert abs(counts[ket] - trials * p) <= 3 * sigma
