"""End-to-end acceptance suite.

One test per release criterion; each prints a PASS/FAIL line with its
number so the whole battery can be read at a glance with `pytest -s`.
Structural comparisons use 1e-9, statistical ones use 3-sigma binomial
bounds, and the stated wall-clock budgets are asserted where given.
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest

from qkdforge.bb84 import (
    ChannelModel,
    EveStrategy,
    SessionConfig,
    bennett_bound,
    run_session,
    shor_preskill_keys,
    transmit_qubit,
)
from qkdforge.codes import (
    build_syndrome_table,
    code_from_generator,
    decode,
    named_code,
    quotient,
)
from qkdforge.css import (
    CssParams,
    css_bit_syndrome,
    css_build,
    css_codeword,
    css_correct,
    css_phase_syndrome,
    verify_basis_identities,
)
from qkdforge.distill import create_epr, inject_bob_errors, measure_alice_parameters, run_distillation
from qkdforge.gf2 import BitMatrix, BitVector
from qkdforge.qec3 import (
    apply_error,
    bitflip_encode,
    bitflip_syndrome_and_correct,
    random_error,
    rotation_error,
    shor_correct,
    shor_encode,
)
from qkdforge.qsim import StateVector, apply_gate, fidelity, overlap

BV = BitVector.from_string

HAMMING_WORDS = {
    "0000000", "0001011", "0010101", "0011110", "0100111", "0101100",
    "0110010", "0111001", "1000110", "1001101", "1010011", "1011000",
    "1100001", "1101010", "1110100", "1111111",
}
PARITY_WORDS = {"0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"}
HAMMING_SYNDROME_TABLE = {
    "000": "0000000", "110": "1000000", "111": "0100000", "101": "0010000",
    "011": "0001000", "100": "0000100", "010": "0000010", "001": "0000001",
}


def criterion(number, description):
    """Print one PASS/FAIL line per criterion, then let pytest report."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")
            return result

        return wrapper

    return decorate


@criterion(1, "classical code tables reproduce the printed listings")
def test_criterion_1_code_tables():
    started = time.perf_counter()
    hamming = named_code("hamming74")
    assert {str(c) for c in hamming.codewords()} == HAMMING_WORDS
    assert hamming.distance == 3
    table = build_syndrome_table(hamming, 1)
    assert {str(s): str(e) for s, e in table.entries.items()} == HAMMING_SYNDROME_TABLE
    assert table[BV("110")] == BV("1000000")

    parity = named_code("parity4")
    assert {str(c) for c in parity.codewords()} == PARITY_WORDS
    assert {str(c) for c in parity.dual().codewords()} == {"0000", "1111"}
    assert time.perf_counter() - started < 1.0


@criterion(2, "decoding corrects, miscorrects, and misses exactly as tabulated")
def test_criterion_2_decode_behaviors():
    hamming = named_code("hamming74")
    table = build_syndrome_table(hamming, 1)

    corrected = decode(hamming, table, BV("1011110"))
    assert corrected.word == BV("0011110") and corrected.status == "ok"

    miscorrected = decode(hamming, table, BV("1011111"))
    assert miscorrected.word == BV("1111111") and miscorrected.status == "ok"

    # Three flips of 0011110 land on another codeword: silently undetected.
    three_errors = BV("0011110") + BV("1100001")
    assert three_errors == BV("1111111")
    assert hamming.syndrome(three_errors).is_zero()


@criterion(3, "the parity-code quotient yields exactly the four printed cosets")
def test_criterion_3_coset_structure():
    parity = named_code("parity4")
    q = quotient(parity, parity.dual())
    cosets = [frozenset(str(w) for w in c) for c in q.cosets()]
    expected = {
        frozenset({"0000", "1111"}),
        frozenset({"0011", "1100"}),
        frozenset({"0101", "1010"}),
        frozenset({"0110", "1001"}),
    }
    assert len(cosets) == 4 and set(cosets) == expected
    # Exhaustive partition check over all of C1.
    union = set()
    for c in cosets:
        assert not (union & c)
        union |= c
    assert union == {str(w) for w in parity.codewords()}


@criterion(4, "character-sum identities hold exhaustively, exactly")
def test_criterion_4_character_sums():
    rng = np.random.default_rng(7)
    codes = [named_code("parity4"), named_code("hamming74")]
    while len(codes) < 22:
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, n))
        try:
            codes.append(
                code_from_generator(BitMatrix.from_numpy(rng.integers(0, 2, size=(k, n))))
            )
        except ValueError:
            continue
    for code in codes:
        dual_words = set(code.dual().codewords())
        for m in range(2**code.n):
            u = BV(format(m, f"0{code.n}b"))
            expected = 2**code.k if u in dual_words else 0
            assert code.char_sum(u) == expected
        # Kronecker form on the message space of each code.
        k = code.k
        vectors = np.array(
            [[(m >> (k - 1 - i)) & 1 for i in range(k)] for m in range(2**k)],
            dtype=np.uint8,
        )
        sums = (1 - 2 * ((vectors @ vectors.T) % 2).astype(np.int64)).sum(axis=0)
        assert sums[0] == 2**k and not sums[1:].any()


@criterion(5, "quantum codewords match the printed superpositions amplitude-for-amplitude")
def test_criterion_5_css_codewords():
    parity = named_code("parity4")
    parity_pair = css_build(parity, parity.dual(), 0)
    expected_parity = {
        "0000": {"0000", "1111"},
        "0011": {"0011", "1100"},
        "0101": {"0101", "1010"},
        "0110": {"0110", "1001"},
    }
    parity_states = []
    for v, kets in expected_parity.items():
        state = css_codeword(parity_pair, BV(v))
        parity_states.append(state)
        for i, amp in enumerate(state.amps):
            want = 1 / math.sqrt(2) if format(i, "04b") in kets else 0.0
            assert abs(amp - want) <= 1e-9
    for a, b in itertools.combinations(parity_states, 2):
        assert abs(overlap(a, b)) <= 1e-9

    hamming = named_code("hamming74")
    hamming_pair = css_build(hamming, hamming.dual(), 1)
    expected_hamming = {
        "0000000": {
            "0000000", "1110100", "1101010", "0111001",
            "0011110", "1010011", "1001101", "0100111",
        },
        "0001011": {
            "0001011", "1111111", "1100001", "0110010",
            "0010101", "1011000", "1000110", "0101100",
        },
    }
    hamming_states = []
    for v, kets in expected_hamming.items():
        state = css_codeword(hamming_pair, BV(v))
        hamming_states.append(state)
        for i, amp in enumerate(state.amps):
            want = 1 / math.sqrt(8) if format(i, "07b") in kets else 0.0
            assert abs(amp - want) <= 1e-9
    assert abs(overlap(*hamming_states)) <= 1e-9


@criterion(6, "single flips map to the tabulated syndromes; combined flips correct exactly")
def test_criterion_6_css_syndromes():
    started = time.perf_counter()
    hamming = named_code("hamming74")
    pair = css_build(hamming, hamming.dual(), 1)
    clean = css_codeword(pair, BV("0000000"))
    rng = np.random.default_rng(13)
    columns = {1: "110", 2: "111", 3: "101", 4: "011", 5: "100", 6: "010", 7: "001"}
    for qubit, column in columns.items():
        s, _ = css_bit_syndrome(pair, apply_gate(clean, "X", qubit), rng)
        assert str(s) == column
        s, _ = css_phase_syndrome(pair, apply_gate(clean, "Z", qubit), rng)
        assert str(s) == column
    for xq in range(1, 8):
        for zq in range(1, 8):
            corrupted = apply_gate(apply_gate(clean, "Z", zq), "X", xq)
            result = css_correct(pair, corrupted, None, rng)
            assert result.status == "ok"
            assert fidelity(result.state, clean) >= 1 - 1e-9
    assert time.perf_counter() - started < 30.0


@criterion(7, "the parameterized codewords form an orthonormal basis of the full space")
def test_criterion_7_basis_identities():
    parity = named_code("parity4")
    pair = css_build(parity, parity.dual(), 0)
    report = verify_basis_identities(
        pair, [BV("0000"), BV("0001")], [BV("0000"), BV("0001")]
    )
    assert report.states == 16
    assert report.orthonormality_deviation <= 1e-9
    assert report.phase_branch_deviation <= 1e-9
    assert report.completeness_deviation <= 1e-9
    # Both branches of the overlap rule, explicitly.
    base = css_codeword(pair, BV("0000"), CssParams(x=BV("0001"), z=BV("0000")))
    in_dual = css_codeword(pair, BV("0000"), CssParams(x=BV("0001"), z=BV("1111")))
    outside = css_codeword(pair, BV("0000"), CssParams(x=BV("0001"), z=BV("0001")))
    assert abs(overlap(in_dual, base) - 1.0) <= 1e-9
    assert abs(overlap(outside, base)) <= 1e-9


@criterion(8, "single-error codes: observable table, error discretization, arbitrary-error correction")
def test_criterion_8_single_error_demos():
    rng = np.random.default_rng(17)
    a, b = 0.6, 0.8

    # Deterministic observable table.
    clean = bitflip_encode(a, b)
    expected = {0: None, 1: None, 2: None, 3: None}
    for qubit in expected:
        state = clean if qubit == 0 else apply_gate(clean, "X", qubit)
        outcome, corrected = bitflip_syndrome_and_correct(state, rng)
        assert outcome == qubit
        assert fidelity(corrected, clean) >= 1 - 1e-9

    # Continuous rotation discretizes to cos^2/sin^2 outcome frequencies.
    trials = 10_000
    for theta in (0.0, math.pi / 6, math.pi / 4, math.pi / 3):
        none_count = 0
        for _ in range(trials):
            corrupted = apply_error(clean, rotation_error(theta, qubit=3))
            outcome, corrected = bitflip_syndrome_and_correct(corrupted, rng)
            assert outcome in (0, 3)
            none_count += outcome == 0
            assert fidelity(corrected, clean) >= 1 - 1e-9
        p = math.cos(theta) ** 2
        if theta == math.pi / 3:
            assert p == pytest.approx(0.25)  # exact analytic value
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(none_count - trials * p) <= 3 * sigma + 1e-9

    # 100 arbitrary single-qubit unitaries on the nine-qubit code.
    for _ in range(100):
        amp_a = rng.normal() + 1j * rng.normal()
        amp_b = rng.normal() + 1j * rng.normal()
        norm = math.sqrt(abs(amp_a) ** 2 + abs(amp_b) ** 2)
        encoded = shor_encode(amp_a / norm, amp_b / norm)
        error = random_error(rng, qubit=int(rng.integers(1, 10)))
        _, corrected = shor_correct(apply_error(encoded, error), rng)
        assert fidelity(corrected, encoded) >= 1 - 1e-9


@criterion(9, "distillation agrees on keys for every in-capacity error pattern")
def test_criterion_9_distillation():
    started = time.perf_counter()
    hamming = named_code("hamming74")
    pair = css_build(hamming, hamming.dual(), 1)
    rng = np.random.default_rng(19)

    def pattern(position):
        bits = [0] * 7
        if position is not None:
            bits[position] = 1
        return BitVector.from_ints(bits)

    positions = [None] + list(range(7))
    for e1_pos in positions:
        for e2_pos in positions:
            session = inject_bob_errors(
                create_epr(7, pair), pattern(e1_pos), pattern(e2_pos)
            )
            alice_key, bob_key, _ = run_distillation(session, rng)
            assert alice_key == bob_key

    # Post-measurement joint state identity for the 4-bit pair.
    parity = named_code("parity4")
    small = css_build(parity, parity.dual(), 0)
    session = create_epr(4, small)
    x, z, _, _ = measure_alice_parameters(session, rng)
    total = np.zeros(2**8, dtype=complex)
    for m in range(4):
        v = small.quotient.representative(BV(format(m, "02b")))
        half = css_codeword(small, v, CssParams(x=x, z=z)).amps
        total += np.kron(half, half)
    expected = StateVector(n=8, amps=total / np.linalg.norm(total))
    assert fidelity(session.joint, expected) >= 1 - 1e-9
    assert time.perf_counter() - started < 120.0


@criterion(10, "intercept-resend statistics: qber 1/4, sifted and learned fractions 1/2")
def test_criterion_10_bb84_monte_carlo():
    trials = 100_000
    rng = np.random.default_rng(23)
    channel = ChannelModel()
    eve = EveStrategy(kind="intercept_resend")
    bits = rng.integers(0, 2, size=trials)
    bases = rng.integers(0, 2, size=trials)
    sifted = errors = learned_sifted = 0
    for i in range(trials):
        bob_basis, bob_bit, learned = transmit_qubit(
            int(bits[i]), int(bases[i]), channel, eve, rng
        )
        if bob_basis == bases[i]:
            sifted += 1
            errors += bob_bit != bits[i]
            learned_sifted += learned

    sift_sigma = math.sqrt(trials * 0.25)
    assert abs(sifted - trials / 2) <= 3 * sift_sigma

    qber = errors / sifted
    qber_sigma = math.sqrt(0.25 * 0.75 / sifted)
    assert abs(qber - 0.25) <= 3 * qber_sigma

    learned_fraction = learned_sifted / sifted
    learned_sigma = math.sqrt(0.25 / sifted)
    assert abs(learned_fraction - 0.5) <= 3 * learned_sigma


@criterion(11, "code-based protocol: every single-error run yields one shared key bit")
def test_criterion_11_shor_preskill():
    c1 = named_code("hamming74")
    c2 = c1.dual()
    quot = quotient(c1, c2)
    table = build_syndrome_table(c1, 1)

    # End-to-end protocol run with a quiet channel.
    transcript = None
    for seed in range(50):
        candidate = run_session(
            SessionConfig(n=7, seed=seed, mode="shor_preskill", codes=(c1, c2))
        )
        if not candidate.aborted:
            transcript = candidate
            break
    assert transcript is not None and transcript.keys_match
    assert len(transcript.alice_key) == 1

    # Exhaustive sweep over the key block: no error plus all 7 single flips.
    x, u = transcript.alice_block, transcript.u
    for position in [None] + list(range(7)):
        bits = [0] * 7
        if position is not None:
            bits[position] = 1
        e1 = BitVector.from_ints(bits)
        derivation = shor_preskill_keys(c1, quot, table, x, u, x + e1)
        assert derivation.decode_status == "ok"
        assert derivation.alice_key == derivation.bob_key
        assert len(derivation.alice_key) == 1

    value = bennett_bound(5)
    assert abs(value - 0.0451) <= 1e-4


@criterion(12, "identical config and seed give byte-identical transcripts")
def test_criterion_12_determinism():
    c1 = named_code("hamming74")
    c2 = c1.dual()

    def shor_run():
        return run_session(
            SessionConfig(n=7, seed=29, mode="shor_preskill", codes=(c1, c2))
        ).to_json()

    def standard_run():
        return run_session(
            SessionConfig(
                n=25,
                seed=31,
                mode="standard",
                eve=EveStrategy(kind="intercept_resend"),
                channel=ChannelModel(px=0.01, pz=0.02),
            )
        ).to_json()

    assert shor_run() == shor_run()
    assert standard_run() == standard_run()
    assert shor_run().encode() == shor_run().encode()  # byte equality
