import itertools
import json
import math

import numpy as np
import pytest

from qkdforge.bb84 import (
    BASIS_X,
    BASIS_Z,
    MAX_N,
    MAX_RAW_LENGTH,
    ChannelModel,
    EveStrategy,
    SessionConfig,
    bennett_bound,
    eve_info_estimate,
    replay_bob,
    run_session,
    shor_preskill_keys,
    transmit_qubit,
)
from qkdforge.codes import build_syndrome_table, named_code, quotient
from qkdforge.gf2 import BitVector

BV = BitVector.from_string

QUIET = ChannelModel()
NO_EVE = EveStrategy()
INTERCEPT = EveStrategy(kind="intercept_resend")


def hamming_setup():
    c1 = named_code("hamming74")
    return c1, c1.dual()


def transmit_batch(trials, seed, channel=QUIET, eve=NO_EVE, fixed_basis=None):
    """Drive the single-qubit channel and bucket results by basis match."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=trials)
    if fixed_basis is None:
        bases = rng.integers(0, 2, size=trials)
    else:
        bases = np.full(trials, fixed_basis)
    matched = []
    learned_total = 0
    for i in range(trials):
        bob_basis, bob_bit, learned = transmit_qubit(
            int(bits[i]), int(bases[i]), channel, eve, rng
        )
        learned_total += learned
        if bob_basis == bases[i]:
            matched.append((int(bits[i]), bob_bit, learned, int(bases[i])))
    return matched, learned_total, trials


class TestTransmitQubit:
    def test_clean_channel_matched_bases_always_agree(self):
        matched, _, _ = transmit_batch(2000, seed=0)
        assert matched  # basis matching happens about half the time
        assert all(sent == received for sent, received, _, _ in matched)

    def test_intercept_resend_quarter_error_rate(self):
        matched, _, _ = transmit_batch(8000, seed=1, eve=INTERCEPT)
        errors = sum(sent != received for sent, received, _, _ in matched)
        p, n = 0.25, len(matched)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(errors - n * p) <= 3 * sigma

    def test_wrong_basis_eavesdropper_half_error_rate(self):
        # Alice always prepares Z; Eve always measures X; errors appear on
        # half of Bob's basis-matched bits.
        eve = EveStrategy(kind="intercept_resend", basis_policy="always_X")
        matched, learned, _ = transmit_batch(
            4000, seed=2, eve=eve, fixed_basis=BASIS_Z
        )
        assert learned == 0
        errors = sum(sent != received for sent, received, _, _ in matched)
        n = len(matched)
        sigma = math.sqrt(n * 0.25)
        assert abs(errors - n / 2) <= 3 * sigma

    def test_matching_basis_eavesdropper_invisible(self):
        eve = EveStrategy(kind="intercept_resend", basis_policy="always_Z")
        matched, learned, trials = transmit_batch(
            1000, seed=3, eve=eve, fixed_basis=BASIS_Z
        )
        assert learned == trials  # she always measures in the right basis
        assert all(sent == received for sent, received, _, _ in matched)

    def test_channel_flip_rates_by_basis(self):
        # X errors flip Z-basis bits and leave X-basis bits alone; Z errors
        # do the reverse.
        for basis, channel, p in (
            (BASIS_Z, ChannelModel(px=0.1), 0.1),
            (BASIS_X, ChannelModel(px=0.1), 0.0),
            (BASIS_X, ChannelModel(pz=0.1), 0.1),
            (BASIS_Z, ChannelModel(pz=0.1), 0.0),
        ):
            matched, _, _ = transmit_batch(
                4000, seed=4, channel=channel, fixed_basis=basis
            )
            errors = sum(sent != received for sent, received, _, _ in matched)
            n = len(matched)
            sigma = math.sqrt(n * max(p, 0.01) * (1 - max(p, 0.01)))
            assert abs(errors - n * p) <= 3 * sigma

    def test_eve_learns_half(self):
        _, learned, trials = transmit_batch(4000, seed=5, eve=INTERCEPT)
        sigma = math.sqrt(trials * 0.25)
        assert abs(learned - trials / 2) <= 3 * sigma


class TestConfig:
    def test_raw_length(self):
        assert SessionConfig(n=100, delta=0.25).raw_length == 425
        assert SessionConfig(n=7, delta=0.0).raw_length == 28

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(n=0)
        with pytest.raises(ValueError):
            SessionConfig(n=4, t_abort=7)
        with pytest.raises(ValueError):
            SessionConfig(n=4, mode="shor_preskill")  # codes missing
        with pytest.raises(ValueError):
            SessionConfig(n=4, mode="shor_preskill", codes=hamming_setup())
        with pytest.raises(ValueError):
            ChannelModel(px=1.5)
        with pytest.raises(ValueError):
            EveStrategy(kind="beamsplit")

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan, -0.5])
    def test_delta_must_be_finite_and_nonnegative(self, delta):
        with pytest.raises(ValueError, match="delta"):
            SessionConfig(n=7, delta=delta)

    def test_size_limits(self):
        assert SessionConfig(n=MAX_N).raw_length <= MAX_RAW_LENGTH
        with pytest.raises(ValueError, match="n must be"):
            SessionConfig(n=MAX_N + 1)
        with pytest.raises(ValueError, match="raw block"):
            SessionConfig(n=MAX_N, delta=2.0)
        with pytest.raises(ValueError, match="raw block"):
            SessionConfig(n=7, delta=MAX_RAW_LENGTH)

    def test_shor_preskill_pair_checked_up_front(self):
        c1, c2 = hamming_setup()
        with pytest.raises(ValueError, match="proper subcode"):
            SessionConfig(n=7, mode="shor_preskill", codes=(c1, c1))
        with pytest.raises(ValueError, match="proper subcode"):
            SessionConfig(n=7, mode="shor_preskill", codes=(c2, c1))
        with pytest.raises(ValueError, match="same length"):
            SessionConfig(n=7, mode="shor_preskill", codes=(c1, named_code("rep3")))

    def test_transmit_qubit_rejects_non_bits(self):
        rng = np.random.default_rng(0)
        for bit, basis in ((2, BASIS_Z), (-1, BASIS_Z), (0, 2)):
            with pytest.raises(ValueError):
                transmit_qubit(bit, basis, QUIET, NO_EVE, rng)


class TestRunStandard:
    def test_quiet_run_blocks_agree(self):
        transcript = run_session(SessionConfig(n=20, seed=6))
        assert not transcript.aborted
        assert transcript.mismatches == 0
        assert transcript.alice_block == transcript.bob_block
        assert len(transcript.key_idx) == 20

    def test_sifted_fraction_near_half(self):
        transcript = run_session(SessionConfig(n=200, seed=7))
        raw = len(transcript.d)
        sigma = math.sqrt(raw * 0.25)
        assert abs(len(transcript.sifted) - raw / 2) <= 3 * sigma

    def test_abort_on_check_errors(self):
        transcript = run_session(
            SessionConfig(n=30, seed=8, eve=INTERCEPT, t_abort=0)
        )
        assert transcript.aborted
        assert transcript.abort_reason == "check_bit_errors"
        assert transcript.alice_key is None

    def test_abort_on_insufficient_sifted(self):
        # With delta = 0 the raw block is exactly 4n, so some seed sifts
        # to fewer than 2n positions.
        for seed in range(200):
            transcript = run_session(SessionConfig(n=6, delta=0.0, seed=seed))
            if transcript.aborted:
                assert transcript.abort_reason == "insufficient_sifted_bits"
                assert len(transcript.sifted) < 12
                break
        else:
            pytest.fail("no aborting seed found")

    def test_reconciler_hook_called(self):
        calls = []

        def fix_everything(alice_block, bob_block):
            calls.append((alice_block, bob_block))
            return alice_block

        transcript = run_session(
            SessionConfig(
                n=10, seed=9, channel=ChannelModel(px=0.2), reconciler=fix_everything
            )
        )
        if not transcript.aborted:
            assert calls
            assert transcript.reconciled_block == transcript.alice_block

    def test_pa_report_fields(self):
        transcript = run_session(SessionConfig(n=15, seed=10, shed_bits=5))
        report = transcript.pa_report
        assert report["s"] == 5
        assert report["targetK"] == 15 - report["r"] - 5
        assert report["eveBound"] == pytest.approx(bennett_bound(5))


class TestRunShorPreskill:
    def test_quiet_run_exact_recovery(self):
        c1, c2 = hamming_setup()
        transcript = run_session(
            SessionConfig(n=7, seed=11, mode="shor_preskill", codes=(c1, c2))
        )
        assert not transcript.aborted
        assert transcript.u_hat == transcript.u
        assert transcript.keys_match
        assert len(transcript.alice_key) == 1

    def test_announced_string_masks_the_codeword(self):
        c1, c2 = hamming_setup()
        for seed in range(12, 30):
            transcript = run_session(
                SessionConfig(n=7, seed=seed, mode="shor_preskill", codes=(c1, c2))
            )
            if not transcript.aborted:
                break
        assert not transcript.aborted
        assert transcript.x_minus_u == transcript.alice_block + transcript.u

    def test_single_errors_always_agree(self):
        c1, c2 = hamming_setup()
        quot = quotient(c1, c2)
        table = build_syndrome_table(c1, 1)
        x = BV("0110100")
        u = BV("1011000")
        for position in [None] + list(range(7)):
            e1 = BitVector.zeros(7)
            if position is not None:
                bits = [0] * 7
                bits[position] = 1
                e1 = BitVector.from_ints(bits)
            derivation = shor_preskill_keys(c1, quot, table, x, u, x + e1)
            assert derivation.decode_status == "ok"
            assert derivation.u_hat == u
            assert derivation.alice_key == derivation.bob_key

    def test_double_errors_always_miscorrect(self):
        # Every weight-2 flip lands on a syndrome of some single-bit error,
        # decoding drifts to a codeword a weight-3 word away, and no
        # weight-3 word lies in the dual, so the keys always split.
        c1, c2 = hamming_setup()
        quot = quotient(c1, c2)
        table = build_syndrome_table(c1, 1)
        x = BV("0000000")
        u = BV("0011110")
        for i, j in itertools.combinations(range(7), 2):
            bits = [0] * 7
            bits[i] = bits[j] = 1
            e1 = BitVector.from_ints(bits)
            derivation = shor_preskill_keys(c1, quot, table, x, u, x + e1)
            assert derivation.decode_status == "ok"
            assert derivation.u_hat != u
            assert derivation.alice_key != derivation.bob_key

    def test_channel_noise_flagged_in_transcript(self):
        c1, c2 = hamming_setup()
        agreements = []
        for seed in range(40):
            transcript = run_session(
                SessionConfig(
                    n=7,
                    seed=seed,
                    mode="shor_preskill",
                    codes=(c1, c2),
                    channel=ChannelModel(px=0.05),
                )
            )
            if not transcript.aborted:
                agreements.append(transcript.keys_match)
        assert agreements and all(isinstance(k, bool) for k in agreements)


class TestTranscript:
    def test_determinism_byte_identical(self):
        c1, c2 = hamming_setup()
        config = dict(n=7, seed=13, mode="shor_preskill", codes=(c1, c2))
        first = run_session(SessionConfig(**config))
        second = run_session(SessionConfig(**config))
        assert first.to_json() == second.to_json()
        noisy = dict(n=12, seed=14, eve=INTERCEPT)
        assert (
            run_session(SessionConfig(**noisy)).to_json()
            == run_session(SessionConfig(**noisy)).to_json()
        )

    def test_fixed_field_names(self):
        transcript = run_session(SessionConfig(n=8, seed=15))
        payload = json.loads(transcript.to_json())
        for name in (
            "d", "b", "bobBases", "sifted", "checkIdx", "mismatches",
            "aborted", "xMinusU", "uHat", "key",
        ):
            assert name in payload
        assert isinstance(payload["d"], str)
        assert isinstance(payload["sifted"], list)
        assert isinstance(payload["aborted"], bool)

    def test_to_dict_is_the_parsed_json(self):
        c1, c2 = hamming_setup()
        for config in (
            SessionConfig(n=8, seed=15),
            SessionConfig(n=7, seed=13, mode="shor_preskill", codes=(c1, c2)),
        ):
            transcript = run_session(config)
            assert transcript.to_dict() == json.loads(transcript.to_json())

    def test_replay_bob_reproduces_transcript(self):
        c1, c2 = hamming_setup()
        transcript = run_session(
            SessionConfig(
                n=7,
                seed=16,
                mode="shor_preskill",
                codes=(c1, c2),
                channel=ChannelModel(px=0.03),
            )
        )
        if transcript.aborted:
            pytest.skip("aborted seed; replay covers completed runs")
        replayed = replay_bob(transcript, c1, c2)
        assert replayed["sifted"] == transcript.sifted
        assert replayed["mismatches"] == transcript.mismatches
        assert replayed["key_idx"] == transcript.key_idx
        assert replayed["bob_block"] == transcript.bob_block
        assert replayed["u_hat"] == transcript.u_hat
        assert replayed["bob_key"] == transcript.bob_key

    def test_replay_bob_on_decode_failure(self):
        # parity4 corrects nothing, so an odd number of flips in the key
        # block leaves a syndrome outside C1's table.
        c1 = named_code("parity4")
        c2 = c1.dual()
        transcript = run_session(
            SessionConfig(
                n=4, seed=5, mode="shor_preskill", codes=(c1, c2), channel=ChannelModel(px=0.2)
            )
        )
        assert transcript.abort_reason == "decode_failure"
        replayed = replay_bob(transcript, c1, c2)
        assert replayed["bob_block"] == transcript.bob_block
        assert replayed["u_hat"] is None and transcript.u_hat is None
        assert replayed["bob_key"] is None and transcript.bob_key is None

    def test_replay_bob_without_codes_names_the_pair(self):
        c1, c2 = hamming_setup()
        transcript = run_session(SessionConfig(n=7, seed=11, mode="shor_preskill", codes=(c1, c2)))
        assert transcript.x_minus_u is not None
        with pytest.raises(ValueError, match="code pair c1, c2"):
            replay_bob(transcript)
        with pytest.raises(ValueError, match="code pair c1, c2"):
            replay_bob(transcript, c1)
        # Sifting and block extraction need no codes.
        standard = run_session(SessionConfig(n=7, seed=11))
        assert replay_bob(standard)["bob_block"] == standard.bob_block

    def test_run_session_dispatch(self):
        c1, c2 = hamming_setup()
        assert run_session(SessionConfig(n=5, seed=17)).mode == "standard"
        assert (
            run_session(
                SessionConfig(n=7, seed=17, mode="shor_preskill", codes=(c1, c2))
            ).mode
            == "shor_preskill"
        )


class TestEveEstimate:
    def test_no_eavesdropper(self):
        transcript = run_session(SessionConfig(n=10, seed=18))
        assert eve_info_estimate(transcript) == 0.0

    def test_intercept_resend_half(self):
        transcript = run_session(SessionConfig(n=150, seed=19, eve=INTERCEPT))
        fraction = eve_info_estimate(transcript)
        n = len(transcript.sifted)
        sigma = math.sqrt(0.25 / n)
        assert abs(fraction - 0.5) <= 3 * sigma

    def test_degenerate_all_z_configuration(self):
        # Alice prepares only in Z, Eve measures only in Z: she learns
        # every bit without leaving a trace.
        eve = EveStrategy(kind="intercept_resend", basis_policy="always_Z")
        _, learned, trials = transmit_batch(500, seed=20, eve=eve, fixed_basis=BASIS_Z)
        assert learned == trials


class TestBennettBound:
    def test_reference_value(self):
        assert bennett_bound(5) == pytest.approx(0.0451, abs=1e-4)

    def test_zero_shed(self):
        assert bennett_bound(0) == pytest.approx(1 / math.log(2))

    def test_halving(self):
        for s in range(10):
            assert bennett_bound(s + 1) == pytest.approx(bennett_bound(s) / 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bennett_bound(-1)
