import tracemalloc

import numpy as np
import pytest

from qkdforge import codes, gf2
from qkdforge.codes import named_code
from qkdforge.css import CssParams, css_build, css_codeword
from qkdforge.distill import (
    create_epr,
    inject_bob_errors,
    measure_alice_parameters,
    run_distillation,
)
from qkdforge.gf2 import BitVector, mat_apply
from qkdforge.qsim import StateVector, fidelity, measure_all_z

BV = BitVector.from_string


@pytest.fixture(scope="module")
def parity_pair():
    c1 = named_code("parity4")
    return css_build(c1, c1.dual(), 0)


@pytest.fixture(scope="module")
def hamming_pair():
    c1 = named_code("hamming74")
    return css_build(c1, c1.dual(), 1)


def unit_error(n, position):
    """All-zero error with a 1 at `position`, or all-zero for None."""
    bits = [0] * n
    if position is not None:
        bits[position] = 1
    return BitVector.from_ints(bits)


class TestCreateEpr:
    def test_single_pair_amplitudes(self):
        expected = np.zeros(4, dtype=complex)
        expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
        assert np.allclose(create_epr(1).amps, expected)

    def test_halves_always_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bits, _ = measure_all_z(create_epr(1), rng)
            assert bits[0] == bits[1]

    def test_two_pairs_block_layout(self):
        joint = create_epr(2)
        sup = {format(i, "04b") for i, a in enumerate(joint.amps) if abs(a) > 1e-12}
        assert sup == {"0000", "0101", "1010", "1111"}
        assert np.allclose([a for a in joint.amps if abs(a) > 1e-12], 0.5)

    def test_amplitudes_match_the_diagonal_loop_byte_for_byte(self):
        for n in range(1, 9):
            size = 2**n
            amps = np.zeros(size * size, dtype=complex)
            for j in range(size):
                amps[j * size + j] = 1.0
            amps /= np.sqrt(size)
            assert create_epr(n).amps.tobytes() == amps.tobytes()

    def test_size_guard(self):
        # 21 pairs are 2^21 kets, twice the budget: refused with nothing of
        # that size allocated. 9 pairs, 18 qubits on 512 kets, are built.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                create_epr(21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert create_epr(9).n == 18

    def test_code_length_mismatch(self, hamming_pair):
        # Four pairs do not fit a length-7 code: refused before any draw.
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        for step in (measure_alice_parameters, run_distillation):
            with pytest.raises(ValueError, match="code length 7 does not match n=4"):
                step(hamming_pair, create_epr(4), rng)
        assert rng.bit_generator.state == before


class TestInjectErrors:
    def test_bit_flip_gives_psi_plus(self):
        joint = inject_bob_errors(create_epr(1), BV("1"), BV("0"))
        expected = np.zeros(4, dtype=complex)
        expected[0b01] = expected[0b10] = 1 / np.sqrt(2)
        assert np.allclose(joint.amps, expected)

    def test_zero_errors_unchanged(self):
        clean = create_epr(2)
        after = inject_bob_errors(clean, BV("00"), BV("00"))
        assert np.allclose(after.amps, clean.amps)

    def test_both_errors_give_singlet(self):
        joint = inject_bob_errors(create_epr(1), BV("1"), BV("1"))
        singlet = np.zeros(4, dtype=complex)
        singlet[0b01] = 1 / np.sqrt(2)
        singlet[0b10] = -1 / np.sqrt(2)
        assert fidelity(joint, StateVector(n=2, amps=singlet)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            inject_bob_errors(create_epr(2), BV("1"), BV("00"))


class TestRunDistillation:
    def test_no_errors_keys_agree_empty_corrections(self, hamming_pair):
        rng = np.random.default_rng(1)
        alice_key, bob_key, report = run_distillation(hamming_pair, create_epr(7), rng)
        assert alice_key == bob_key
        assert report.bit_correction.is_zero()
        assert report.phase_correction.is_zero()

    def test_single_error_pairs_sample(self, hamming_pair):
        # A representative slice; the full 8x8 sweep runs in acceptance.
        rng = np.random.default_rng(2)
        for e1_pos in (None, 0, 4, 6):
            for e2_pos in (None, 2, 3, 6):
                joint = inject_bob_errors(create_epr(7), unit_error(7, e1_pos), unit_error(7, e2_pos))
                alice_key, bob_key, report = run_distillation(hamming_pair, joint, rng)
                assert alice_key == bob_key
                assert report.bit_correction == unit_error(7, e1_pos)
                assert report.phase_correction == unit_error(7, e2_pos)

    def test_parity_pair_strings_same_coset(self, parity_pair):
        for seed in range(8):
            alice_key, bob_key, report = run_distillation(
                parity_pair, create_epr(4), np.random.default_rng(seed)
            )
            assert alice_key == bob_key
            assert len(alice_key) == 2
            difference = report.alice_bits + report.bob_bits
            assert difference in set(parity_pair.c2.codewords())

    def test_excess_errors_miscorrect(self, hamming_pair):
        # Every syndrome of a perfect code maps to some single-bit error,
        # so a weight-2 flip silently miscorrects and the keys disagree.
        rng = np.random.default_rng(3)
        joint = inject_bob_errors(create_epr(7), BV("1100000"), BV("0000000"))
        alice_key, bob_key, report = run_distillation(hamming_pair, joint, rng)
        assert alice_key != bob_key
        assert report.bit_correction == BV("0000001")

    def test_uncorrectable_syndrome_rejected(self, parity_pair):
        # The parity pair corrects zero errors: any flip leaves a syndrome
        # outside the (trivial) table, a bit flip in the bit syndrome and a
        # phase flip in the phase syndrome.
        for e1, e2 in [("1000", "0000"), ("0000", "1000")]:
            rng = np.random.default_rng(4)
            joint = inject_bob_errors(create_epr(4), BV(e1), BV(e2))
            with pytest.raises(ValueError, match="uncorrectable syndrome"):
                run_distillation(parity_pair, joint, rng)

    def test_steps_leave_their_input_state_unchanged(self, hamming_pair):
        errors = (unit_error(7, 2), unit_error(7, 5))
        steps = (
            lambda joint: inject_bob_errors(joint, *errors),
            lambda joint: measure_alice_parameters(hamming_pair, joint, np.random.default_rng(5)),
            lambda joint: run_distillation(hamming_pair, joint, np.random.default_rng(5)),
        )
        for joint in (create_epr(7), inject_bob_errors(create_epr(7), *errors)):
            before = joint._index.tobytes(), joint._values.tobytes()
            for step in steps:
                step(joint)
                assert (joint._index.tobytes(), joint._values.tobytes()) == before


class TestAliceMeasurementIdentity:
    def test_collapsed_state_matches_codeword_sum(self, parity_pair):
        # After Alice's syndrome measurements alone, the joint state is the
        # normalized sum over cosets of (codeword x codeword) at the
        # measured parameters.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x, z, _, _, joint = measure_alice_parameters(parity_pair, create_epr(4), rng)
            reps = [
                parity_pair.quotient.representative(BV(format(m, "02b")))
                for m in range(4)
            ]
            total = np.zeros(2**8, dtype=complex)
            for v in reps:
                half = css_codeword(parity_pair, v, CssParams(x=x, z=z)).amps
                total += np.kron(half, half)
            total /= np.linalg.norm(total)
            expected = StateVector(n=8, amps=total)
            assert fidelity(joint, expected) >= 1 - 1e-9

    def test_syndrome_uniform_over_sessions(self, parity_pair):
        counts = {0: 0, 1: 0}
        runs = 1000
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            _, _, bit_syndrome, _, _ = measure_alice_parameters(parity_pair, create_epr(4), rng)
            counts[bit_syndrome[0]] += 1
        sigma = np.sqrt(runs * 0.25)
        assert abs(counts[0] - runs / 2) <= 3 * sigma

    def test_alternative_x_choices_preserve_agreement(self, hamming_pair):
        # Any solution of the syndrome system differs from the announced x
        # by a codeword of C1; shifting both parties' strings by it leaves
        # the corrections and the keys unchanged.
        from qkdforge.codes import key_from_coset

        rng = np.random.default_rng(11)
        joint = inject_bob_errors(create_epr(7), unit_error(7, 3), unit_error(7, 5))
        alice_key, bob_key, report = run_distillation(hamming_pair, joint, rng)
        assert alice_key == bob_key
        for c in list(hamming_pair.c1.codewords())[1:]:
            alt_x = report.x + c
            assert mat_apply(hamming_pair.h1, alt_x, side="right") == mat_apply(
                hamming_pair.h1, report.x, side="right"
            )
            alt_alice = key_from_coset(hamming_pair.quotient, report.alice_bits + alt_x)
            alt_bob = key_from_coset(hamming_pair.quotient, report.bob_bits + alt_x)
            assert alt_alice == alt_bob


def test_rounds_on_a_built_code_run_no_elimination(hamming_pair, monkeypatch):
    """Alice's parameters are read off a reduction of each check matrix
    kept on the matrix, so only the first round eliminates."""
    run_distillation(hamming_pair, create_epr(7), np.random.default_rng(0))
    calls, real_rref = [], gf2.rref

    def counting_rref(matrix):
        calls.append(matrix)
        return real_rref(matrix)

    for module in (gf2, codes):
        monkeypatch.setattr(module, "rref", counting_rref)
    for position in (None, 0, 4):
        joint = inject_bob_errors(create_epr(7), unit_error(7, position), unit_error(7, None))
        alice_key, bob_key, _ = run_distillation(hamming_pair, joint, np.random.default_rng(position))
        assert alice_key == bob_key
    assert calls == []
