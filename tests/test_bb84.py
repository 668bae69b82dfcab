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
    _pack_rows,
    _transport,
)
from qkdforge import codes
from qkdforge.codes import code_from_generator, named_code
from qkdforge.gf2 import BitMatrix, BitVector

BV = BitVector.from_string

QUIET = ChannelModel()
NO_EVE = EveStrategy()
INTERCEPT = EveStrategy(kind="intercept_resend")


def hamming_setup():
    c1 = named_code("hamming74")
    return c1, c1.dual()


def transmit_batch(trials, seed, channel=QUIET, eve=NO_EVE, fixed_basis=None):
    """Send trials qubits through one batched transport and keep the
    (sent, received) bits where Bob's basis matches Alice's."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=trials)
    if fixed_basis is None:
        bases = rng.integers(0, 2, size=trials)
    else:
        bases = np.full(trials, fixed_basis)
    bob_bases, bob_bits, learned = _transport(bits, bases, channel, eve, rng)
    matched = bob_bases == bases
    return bits[matched], bob_bits[matched], np.count_nonzero(learned), trials


class TestTransmitQubit:
    def test_clean_channel_matched_bases_always_agree(self):
        sent, received, _, _ = transmit_batch(2000, seed=0)
        assert len(sent)  # basis matching happens about half the time
        assert np.array_equal(sent, received)

    def test_intercept_resend_quarter_error_rate(self):
        sent, received, _, _ = transmit_batch(8000, seed=1, eve=INTERCEPT)
        errors = np.count_nonzero(sent != received)
        p, n = 0.25, len(sent)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(errors - n * p) <= 3 * sigma

    def test_wrong_basis_eavesdropper_half_error_rate(self):
        # Alice always prepares Z; Eve always measures X; errors appear on
        # half of Bob's basis-matched bits.
        eve = EveStrategy(kind="intercept_resend", basis_policy="always_X")
        sent, received, learned, _ = transmit_batch(
            4000, seed=2, eve=eve, fixed_basis=BASIS_Z
        )
        assert learned == 0
        errors = np.count_nonzero(sent != received)
        n = len(sent)
        sigma = math.sqrt(n * 0.25)
        assert abs(errors - n / 2) <= 3 * sigma

    def test_matching_basis_eavesdropper_invisible(self):
        eve = EveStrategy(kind="intercept_resend", basis_policy="always_Z")
        sent, received, learned, trials = transmit_batch(
            1000, seed=3, eve=eve, fixed_basis=BASIS_Z
        )
        assert learned == trials  # she always measures in the right basis
        assert np.array_equal(sent, received)

    def test_channel_flip_rates_by_basis(self):
        # X errors flip Z-basis bits and leave X-basis bits alone; Z errors
        # do the reverse.
        for basis, channel, p in (
            (BASIS_Z, ChannelModel(px=0.1), 0.1),
            (BASIS_X, ChannelModel(px=0.1), 0.0),
            (BASIS_X, ChannelModel(pz=0.1), 0.1),
            (BASIS_Z, ChannelModel(pz=0.1), 0.0),
        ):
            sent, received, _, _ = transmit_batch(
                4000, seed=4, channel=channel, fixed_basis=basis
            )
            errors = np.count_nonzero(sent != received)
            n = len(sent)
            sigma = math.sqrt(n * max(p, 0.01) * (1 - max(p, 0.01)))
            assert abs(errors - n * p) <= 3 * sigma

    @pytest.mark.parametrize("basis, bob_basis_draw", [(BASIS_Z, 0.0), (BASIS_X, 0.75)])
    def test_zero_draw_at_zero_probability_flips_nothing(self, basis, bob_basis_draw):
        # Draws: channel X, channel Z, Bob's basis, Bob's measurement. An X
        # flip would show in the Z basis and a Z flip in the X basis.
        class ScriptedDraws:
            def random(self, shape):
                return np.array([[0.0, 0.0, bob_basis_draw, 0.0]])

        bob_bases, bob_bits, learned = _transport(
            np.array([0]), np.array([basis]), QUIET, NO_EVE, ScriptedDraws()
        )
        assert (bob_bases.tolist(), bob_bits.tolist(), learned.tolist()) == ([basis], [0], [False])

    def test_eve_learns_half(self):
        _, _, learned, trials = transmit_batch(4000, seed=5, eve=INTERCEPT)
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
        assert SessionConfig(n=MAX_N, delta=1.0).raw_length == MAX_RAW_LENGTH  # the limit itself
        with pytest.raises(ValueError, match="n must be"):
            SessionConfig(n=MAX_N + 1)
        with pytest.raises(ValueError, match="raw block"):
            SessionConfig(n=MAX_N, delta=2.0)
        with pytest.raises(ValueError, match="raw block"):
            SessionConfig(n=7, delta=MAX_RAW_LENGTH)
        with pytest.raises(ValueError, match="raw block"):
            SessionConfig(n=7, delta=1e308)  # (4 + delta) * n overflows to inf

    def test_shor_preskill_pair_checked_up_front(self):
        c1, c2 = hamming_setup()
        with pytest.raises(ValueError, match="proper subcode"):
            SessionConfig(n=7, mode="shor_preskill", codes=(c1, c1))
        with pytest.raises(ValueError, match="proper subcode"):
            SessionConfig(n=7, mode="shor_preskill", codes=(c2, c1))
        with pytest.raises(ValueError, match="same length"):
            SessionConfig(n=7, mode="shor_preskill", codes=(c1, named_code("rep3")))

    def test_shor_preskill_table_budget_checked_up_front(self, monkeypatch):
        """The config builds the pair's CSS code, so Bob's table is budgeted
        at css_build's t before any session: with the limit at 7 entries,
        hamming74's t = 1 table (8 entries) is refused (on a fresh copy of
        the code, since css_build keeps a build that passed). A [40, 2]
        code with two disjoint weight-20 rows over the [40, 1] all-ones
        code is refused as css_build refuses it: the dual of C2 has 2^39
        codewords, too many to find its capacity."""
        c1 = code_from_generator(named_code("hamming74").G)
        with monkeypatch.context() as patch:
            patch.setattr(codes, "SYNDROME_TABLE_LIMIT", 7)
            with pytest.raises(ValueError, match="syndrome table for t_max=1 on 7 bits"):
                SessionConfig(n=7, mode="shor_preskill", codes=(c1, c1.dual()))
        SessionConfig(n=7, mode="shor_preskill", codes=(c1, c1.dual()))
        c1 = code_from_generator(BitMatrix.from_strings(["1" * 20 + "0" * 20, "0" * 20 + "1" * 20]))
        c2 = code_from_generator(BitMatrix.from_strings(["1" * 40]))
        with pytest.raises(ValueError, match=r"2\^39 codewords .* ENUMERATION_LIMIT=24"):
            SessionConfig(n=40, mode="shor_preskill", codes=(c1, c2))


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
        x = BV("0110100")
        u = BV("1011000")
        for position in [None] + list(range(7)):
            e1 = BitVector.zeros(7)
            if position is not None:
                bits = [0] * 7
                bits[position] = 1
                e1 = BitVector.from_ints(bits)
            derivation = shor_preskill_keys(c1, c2, x, u, x + e1)
            assert derivation.decode_status == "ok"
            assert derivation.u_hat == u
            assert derivation.alice_key == derivation.bob_key

    def test_double_errors_always_miscorrect(self):
        # Every weight-2 flip lands on a syndrome of some single-bit error,
        # decoding drifts to a codeword a weight-3 word away, and no
        # weight-3 word lies in the dual, so the keys always split.
        c1, c2 = hamming_setup()
        x = BV("0000000")
        u = BV("0011110")
        for i, j in itertools.combinations(range(7), 2):
            bits = [0] * 7
            bits[i] = bits[j] = 1
            e1 = BitVector.from_ints(bits)
            derivation = shor_preskill_keys(c1, c2, x, u, x + e1)
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


class TestRawRows:
    @pytest.mark.parametrize("dtype", [np.int64, np.intp, bool])
    @pytest.mark.parametrize("length", [1, 7, 8, 9, 64, 850])
    def test_packed_rows_equal_from_ints(self, length, dtype):
        # The five raw rows are int64 (d, b), intp (Bob's bases and bits)
        # and bool (Eve's flags); a length off a multiple of 8 exposes a
        # wrong shift or width in the last byte.
        rng = np.random.default_rng(length)
        rows = [rng.integers(0, 2, size=length).astype(dtype) for _ in range(3)]
        rows.append(np.ones(length, dtype=dtype))
        packed = _pack_rows(np.array(rows, dtype=np.uint8))
        assert packed == [BitVector.from_ints(row) for row in rows]
        assert all(len(v) == length for v in packed)

    @pytest.mark.parametrize("length", [1, 2, 5, 64, 849, 850])
    def test_one_raw_draw_equals_two(self, length):
        """run_session draws d and b with one integers(0, 2, size=(2, L))
        call. PCG64 keeps the unused 32-bit half of a 64-bit output across
        calls (has_uint32, uinteger in its state), so that call reads the
        same 32-bit halves as one call for d and then one for b, and leaves
        the same state, whether or not L is odd."""
        for seed in range(20):
            one, two = np.random.default_rng(seed), np.random.default_rng(seed)
            d, b = one.integers(0, 2, size=(2, length))
            assert np.array_equal(d, two.integers(0, 2, size=length))
            assert np.array_equal(b, two.integers(0, 2, size=length))
            state, want = one.bit_generator.state, two.bit_generator.state
            assert (state["has_uint32"], state["uinteger"]) == (
                want["has_uint32"], want["uinteger"]
            )
            assert state == want

    def test_eve_flags_are_a_bit_vector(self):
        transcript = run_session(SessionConfig(n=20, seed=21, eve=INTERCEPT))
        raw_length = SessionConfig(n=20).raw_length
        assert isinstance(transcript.eve_learned, BitVector)
        assert len(transcript.eve_learned) == raw_length
        quiet = run_session(SessionConfig(n=20, seed=21))
        assert quiet.eve_learned == BitVector.zeros(raw_length)


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
        _, _, learned, trials = transmit_batch(500, seed=20, eve=eve, fixed_basis=BASIS_Z)
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
