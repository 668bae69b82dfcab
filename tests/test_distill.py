import numpy as np
import pytest

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
        session = create_epr(1)
        expected = np.zeros(4, dtype=complex)
        expected[0b00] = expected[0b11] = 1 / np.sqrt(2)
        assert np.allclose(session.joint.amps, expected)

    def test_halves_always_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bits, _ = measure_all_z(create_epr(1).joint, rng)
            assert bits[0] == bits[1]

    def test_two_pairs_block_layout(self):
        session = create_epr(2)
        sup = {
            format(i, "04b")
            for i, a in enumerate(session.joint.amps)
            if abs(a) > 1e-12
        }
        assert sup == {"0000", "0101", "1010", "1111"}
        assert np.allclose(
            [a for a in session.joint.amps if abs(a) > 1e-12], 0.5
        )

    def test_size_guard(self):
        with pytest.raises(ValueError):
            create_epr(9)

    def test_code_length_mismatch(self, hamming_pair):
        with pytest.raises(ValueError):
            create_epr(4, hamming_pair)


class TestInjectErrors:
    def test_bit_flip_gives_psi_plus(self):
        session = inject_bob_errors(create_epr(1), BV("1"), BV("0"))
        expected = np.zeros(4, dtype=complex)
        expected[0b01] = expected[0b10] = 1 / np.sqrt(2)
        assert np.allclose(session.joint.amps, expected)

    def test_zero_errors_unchanged(self):
        clean = create_epr(2)
        after = inject_bob_errors(clean, BV("00"), BV("00"))
        assert np.allclose(after.joint.amps, clean.joint.amps)

    def test_both_errors_give_singlet(self):
        session = inject_bob_errors(create_epr(1), BV("1"), BV("1"))
        singlet = np.zeros(4, dtype=complex)
        singlet[0b01] = 1 / np.sqrt(2)
        singlet[0b10] = -1 / np.sqrt(2)
        assert fidelity(session.joint, StateVector(n=2, amps=singlet)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            inject_bob_errors(create_epr(2), BV("1"), BV("00"))


class TestRunDistillation:
    def test_no_errors_keys_agree_empty_corrections(self, hamming_pair):
        rng = np.random.default_rng(1)
        session = create_epr(7, hamming_pair)
        alice_key, bob_key, report = run_distillation(session, rng)
        assert alice_key == bob_key
        assert report.bit_correction.is_zero()
        assert report.phase_correction.is_zero()

    def test_single_error_pairs_sample(self, hamming_pair):
        # A representative slice; the full 8x8 sweep runs in acceptance.
        rng = np.random.default_rng(2)
        for e1_pos in (None, 0, 4, 6):
            for e2_pos in (None, 2, 3, 6):
                session = inject_bob_errors(
                    create_epr(7, hamming_pair),
                    unit_error(7, e1_pos),
                    unit_error(7, e2_pos),
                )
                alice_key, bob_key, report = run_distillation(session, rng)
                assert alice_key == bob_key
                assert report.bit_correction == unit_error(7, e1_pos)
                assert report.phase_correction == unit_error(7, e2_pos)

    def test_parity_pair_strings_same_coset(self, parity_pair):
        for seed in range(8):
            session = create_epr(4, parity_pair)
            alice_key, bob_key, report = run_distillation(
                session, np.random.default_rng(seed)
            )
            assert alice_key == bob_key
            assert len(alice_key) == 2
            difference = report.alice_bits + report.bob_bits
            assert difference in set(parity_pair.c2.codewords())

    def test_excess_errors_miscorrect(self, hamming_pair):
        # Every syndrome of a perfect code maps to some single-bit error,
        # so a weight-2 flip silently miscorrects and the keys disagree.
        rng = np.random.default_rng(3)
        session = inject_bob_errors(
            create_epr(7, hamming_pair), BV("1100000"), BV("0000000")
        )
        alice_key, bob_key, report = run_distillation(session, rng)
        assert alice_key != bob_key
        assert report.bit_correction == BV("0000001")

    def test_uncorrectable_syndrome_rejected(self, parity_pair):
        # The parity pair corrects zero errors: any flip leaves a syndrome
        # outside the (trivial) table.
        rng = np.random.default_rng(4)
        session = inject_bob_errors(create_epr(4, parity_pair), BV("1000"), BV("0000"))
        with pytest.raises(ValueError):
            run_distillation(session, rng)

    def test_code_required(self):
        with pytest.raises(ValueError):
            run_distillation(create_epr(2), np.random.default_rng(4))


class TestAliceMeasurementIdentity:
    def test_collapsed_state_matches_codeword_sum(self, parity_pair):
        # After Alice's syndrome measurements alone, the joint state is the
        # normalized sum over cosets of (codeword x codeword) at the
        # measured parameters.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            session = create_epr(4, parity_pair)
            x, z, _, _ = measure_alice_parameters(session, rng)
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
            assert fidelity(session.joint, expected) >= 1 - 1e-9

    def test_syndrome_uniform_over_sessions(self, parity_pair):
        counts = {0: 0, 1: 0}
        runs = 1000
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            session = create_epr(4, parity_pair)
            _, _, bit_syndrome, _ = measure_alice_parameters(session, rng)
            counts[bit_syndrome[0]] += 1
        sigma = np.sqrt(runs * 0.25)
        assert abs(counts[0] - runs / 2) <= 3 * sigma

    def test_alternative_x_choices_preserve_agreement(self, hamming_pair):
        # Any solution of the syndrome system differs from the announced x
        # by a codeword of C1; shifting both parties' strings by it leaves
        # the corrections and the keys unchanged.
        from qkdforge.codes import key_from_coset

        rng = np.random.default_rng(11)
        session = inject_bob_errors(
            create_epr(7, hamming_pair), unit_error(7, 3), unit_error(7, 5)
        )
        alice_key, bob_key, report = run_distillation(session, rng)
        assert alice_key == bob_key
        for c in list(hamming_pair.c1.codewords())[1:]:
            alt_x = report.x + c
            assert mat_apply(hamming_pair.h1, alt_x, side="right") == mat_apply(
                hamming_pair.h1, report.x, side="right"
            )
            alt_alice = key_from_coset(hamming_pair.quotient, report.alice_bits + alt_x)
            alt_bob = key_from_coset(hamming_pair.quotient, report.bob_bits + alt_x)
            assert alt_alice == alt_bob
