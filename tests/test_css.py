import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qkdforge import css
from qkdforge.codes import code_from_generator, key_from_coset, named_code
from qkdforge.css import (
    CssParams,
    css_bit_syndrome,
    css_build,
    css_codeword,
    css_correct,
    css_phase_syndrome,
    pauli_row,
    verify_basis_identities,
)
from qkdforge.gf2 import BitMatrix, BitVector
from qkdforge.qsim import (
    StateVector,
    apply_gate,
    apply_pauli_string,
    fidelity,
    hadamard_all,
    measure_all_z,
    overlap,
)

from test_codes import hamming15

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

    def test_code_is_frozen(self, hamming_pair):
        with pytest.raises(FrozenInstanceError):
            hamming_pair.t = 0
        with pytest.raises(FrozenInstanceError):
            hamming_pair.bit_table = hamming_pair.phase_table

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

    @pytest.mark.parametrize("name, t", [("parity4", 0), ("hamming74", 1), ("h15", 1)])
    def test_default_t_is_the_largest_both_correct(self, name, t):
        c1 = hamming15() if name == "h15" else named_code(name)
        c2 = c1.dual()
        assert min(c1.corrects, c2.dual().corrects) == t
        default, explicit = css_build(c1, c2), css_build(c1, c2, t)
        assert default.t == explicit.t == t
        assert default.bit_table == explicit.bit_table
        assert default.phase_table == explicit.phase_table


    def test_built_once_per_pair_and_t(self):
        ham = named_code("hamming74")
        code = css_build(ham, ham.dual(), 1)
        assert css_build(ham, ham.dual(), 1) is code
        assert css_build(ham, ham.dual(), t=1).t == 1  # keyword t: kept apart, same code
        assert css_build(ham, ham.dual()) is css_build(ham, ham.dual())
        twin = code_from_generator(ham.G)
        assert css_build(twin, twin.dual(), 1) is not code

    def test_failed_builds_are_not_kept(self):
        parity = named_code("parity4")
        for _ in range(2):
            with pytest.raises(ValueError, match="corrects only"):
                css_build(parity, parity.dual(), 1)
        assert css_build(parity, parity.dual(), 0).t == 0


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

    def test_c2_indices_are_the_codeword_values(self, hamming_pair):
        # 20 bits, three bytes of the first packed word, with C2's rows
        # reaching its first and last bits.
        rows = ["1" + "0" * i + "1" + "0" * (18 - i) for i in (18, 9, 0, 4)]
        c1, c2 = (code_from_generator(BitMatrix.from_strings(r)) for r in (rows, rows[:3]))
        for code in (css_build(c1, c2, 0), hamming_pair):
            want = [w.value for w in code.c2.codewords()]
            assert code._c2_indices.tolist() == want
            assert code._c2_indices.dtype == np.int64 and not code._c2_indices.flags.writeable

    def test_support_over_the_budget_refused_before_c2_is_enumerated(self):
        # C1 = the 22 unit rows on 23 bits, C2 = its first 21: a codeword
        # would hold 2^21 kets, twice the budget.
        rows = ["0" * i + "1" + "0" * (22 - i) for i in range(22)]
        c1, c2 = (code_from_generator(BitMatrix.from_strings(r)) for r in (rows, rows[:21]))
        code = css_build(c1, c2)
        with pytest.raises(ValueError, match="2097152 kets on 23 qubits are over"):
            css_codeword(code, BitVector.zeros(23))
        assert "_c2_indices" not in vars(code)

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
            # The Hadamard frame: X-strings of H2 read as Z-strings.
            s_hadamard, after = css._measure_rows(
                hamming_pair.h2, "Z", hadamard_all(corrupted), np.random.default_rng(7)
            )
            after = hadamard_all(after)
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

    def test_rng_is_required(self, hamming_pair):
        clean = css_codeword(hamming_pair, BV("0000000"))
        with pytest.raises(TypeError):
            css_correct(hamming_pair, clean, None)

    @pytest.mark.parametrize("before, after", [(7, 0), (2, 1)])
    def test_offset_block_matches_the_block_alone(self, hamming_pair, before, after):
        # Spectator qubits around the block change neither the syndromes
        # nor the corrections, and come out of the round untouched.
        params = CssParams(x=BV("1100110"), z=BV("0011010"))
        clean = css_codeword(hamming_pair, BV("0001011"), params)
        corrupted = apply_gate(apply_gate(clean, "X", 5), "Z", 2)
        rng = np.random.default_rng(21)
        head, tail = (rng.normal(size=(2, 2**count)) for count in (before, after))
        head, tail = (v[0] + 1j * v[1] for v in (head, tail))
        head, tail = head / np.linalg.norm(head), tail / np.linalg.norm(tail)

        def embed(block):
            amps = np.kron(np.kron(head, block.amps), tail)
            return StateVector(n=before + 7 + after, amps=amps)

        alone_rng, embedded_rng = np.random.default_rng(11), np.random.default_rng(11)
        alone = css_correct(hamming_pair, corrupted, params, alone_rng)
        embedded = css_correct(hamming_pair, embed(corrupted), params, embedded_rng, offset=before)
        assert embedded.status == alone.status == "ok"
        for name in ("bit_syndrome", "phase_syndrome", "x_correction", "z_correction"):
            assert getattr(embedded, name) == getattr(alone, name), name
        assert embedded.x_correction == BV("0000100")
        assert embedded_rng.bit_generator.state == alone_rng.bit_generator.state
        assert fidelity(embedded.state, embed(clean)) >= 1.0 - 1e-9

    def test_uncorrectable_detected(self, parity_pair):
        rng = np.random.default_rng(12)
        q1 = css_codeword(parity_pair, BV("0000"))
        result = css_correct(parity_pair, apply_gate(q1, "X", 2), None, rng)
        assert result.status == "detected_uncorrectable"
        assert result.x_correction is None


def measured_keys(code, state, seed, draws=8):
    """The keys read as the protocol reads them: every qubit measured in
    the computational basis, then the coset label of the word."""
    rng = np.random.default_rng(seed)
    return {key_from_coset(code.quotient, measure_all_z(state, rng)[0]) for _ in range(draws)}


class TestKeyReadout:
    def test_round_trip_all_cosets(self, parity_pair):
        for m in range(4):
            key = BV(format(m, "02b"))
            v = parity_pair.quotient.representative(key)
            assert measured_keys(parity_pair, css_codeword(parity_pair, v), m) == {key}

    def test_known_coset(self, hamming_pair):
        v = BV("0001011")
        state = css_codeword(hamming_pair, v)
        rng = np.random.default_rng(4)
        words = {measure_all_z(state, rng)[0] for _ in range(64)}
        assert words == hamming_pair.c2.coset(v)  # every word of v + C2 seen
        expected = key_from_coset(hamming_pair.quotient, v)
        assert measured_keys(hamming_pair, state, 5) == {expected}

    def test_corrected_state_identified(self, hamming_pair):
        rng = np.random.default_rng(13)
        clean = css_codeword(hamming_pair, BV("0001011"))
        corrupted = apply_gate(clean, "X", 7)
        with pytest.raises(ValueError, match="is not a codeword of C1"):
            measured_keys(hamming_pair, corrupted, 14, draws=1)
        result = css_correct(hamming_pair, corrupted, None, rng)
        assert measured_keys(hamming_pair, result.state, 15) == {
            key_from_coset(hamming_pair.quotient, BV("0001011"))
        }

    def test_round_trip_every_coset_of_a_three_bit_key(self):
        c1 = named_code("hamming74")
        code = css_build(c1, code_from_generator(BitMatrix.from_strings(["1111111"])), 0)
        assert code.k == 3
        for m in range(8):
            key = BitVector(m, 3)
            v = code.quotient.representative(key)
            assert measured_keys(code, css_codeword(code, v), 20 + m) == {key}

    def test_phase_flips_leave_the_key(self, hamming_pair):
        # A Z error changes signs only: the measured words, and so the key,
        # stay in the coset without any correction.
        v = BV("0001011")
        expected = key_from_coset(hamming_pair.quotient, v)
        clean = css_codeword(hamming_pair, v)
        for qubit in range(1, 8):
            assert measured_keys(hamming_pair, apply_gate(clean, "Z", qubit), qubit) == {expected}


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
        with pytest.raises(ValueError, match="x_set must contain 2 values"):
            verify_basis_identities(parity_pair, [BV("0000")], [BV("0000"), BV("0001")])

    def test_wrong_z_count_rejected(self, parity_pair):
        with pytest.raises(ValueError, match="z_set must contain 2 values"):
            verify_basis_identities(parity_pair, [BV("0000"), BV("0001")], [BV("0000")])

    def test_eleven_qubit_pair_checks_the_dual_codewords(self, monkeypatch):
        # At 11 qubits, as at every size, the phase-branch rule is checked
        # on all 2^n patterns of z, the dual of C2's codewords among them:
        # one codeword per basis row, the z = 0 base, and one per z.
        rows = ["0" * i + "1" + "0" * (9 - i) + "1" for i in range(10)]  # [11, 10] parity
        c1 = code_from_generator(BitMatrix.from_strings(rows))
        c2 = code_from_generator(BitMatrix.from_strings(["11" + "0" * 9]))
        zero = BitVector.zeros(11)
        built = []
        monkeypatch.setattr(css, "css_codeword", lambda *a: built.append(a) or css_codeword(*a))
        report = verify_basis_identities(
            css_build(c1, c2, 0), [zero, BitVector(1, 11)], [zero, BitVector(1 << 10, 11)]
        )
        assert report.states == 2**11
        assert report.phase_branch_deviation <= 1e-9
        assert len(built) == 2**11 + 1 + 2**11

    def test_byte_budget_checked_first(self, parity_pair, monkeypatch):
        # Three 16 x 16 complex matrices: 3 * 16 * 4^4 bytes.
        monkeypatch.setattr(css, "BASIS_IDENTITY_LIMIT", 12288)
        x_set, z_set = [BV("0000"), BV("0001")], [BV("0000"), BV("0001")]
        assert verify_basis_identities(parity_pair, x_set, z_set).states == 16
        monkeypatch.setattr(css, "BASIS_IDENTITY_LIMIT", 12287)
        with pytest.raises(ValueError, match="needs 12288 bytes, over the limit 12287"):
            verify_basis_identities(parity_pair, [], [])

    def test_same_coset_x_rejected(self, parity_pair):
        with pytest.raises(ValueError, match="x_set values must lie in distinct cosets of C1"):
            verify_basis_identities(
                parity_pair,
                [BV("0000"), BV("0011")],  # 0011 is in C1
                [BV("0000"), BV("0001")],
            )

    def test_same_coset_z_rejected(self, parity_pair):
        with pytest.raises(ValueError, match="distinct cosets of the dual of C2"):
            verify_basis_identities(
                parity_pair,
                [BV("0000"), BV("0001")],
                [BV("0001"), BV("1110")],  # 0001 + 1110 = 1111 is in the dual of C2
            )

    def test_peak_memory_is_three_matrices(self):
        # The state matrix, its conj() and one product: at most 3.1 * 16 * 4^n
        # bytes traced at n = 10, with no second copy of the codewords.
        rows = ["0" * i + "1" + "0" * (8 - i) + "1" for i in range(9)]  # [10, 9] parity
        c1 = code_from_generator(BitMatrix.from_strings(rows))
        zero, one = BitVector.zeros(10), BitVector(1, 10)
        code = css_build(c1, c1.dual(), 0)
        tracemalloc.start()
        try:
            verify_basis_identities(code, [zero, one], [zero, one])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 16 * 4**10

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
