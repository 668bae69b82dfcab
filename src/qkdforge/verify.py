"""Self-verification battery: re-derives every built-in table, codeword
listing, syndrome mapping, and protocol identity, and reports a pass/fail
line per check. The CLI exposes this as the `verify` subcommand."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bb84 import (
    ChannelModel,
    EveStrategy,
    SessionConfig,
    bennett_bound,
    run_session,
    shor_preskill_keys,
    transmit_qubit,
)
from .codes import (
    LinearCode,
    build_syndrome_table,
    decode,
    named_code,
    quotient,
)
from .css import css_build, css_codeword, css_correct, verify_basis_identities
from .distill import create_epr, inject_bob_errors, run_distillation
from .gf2 import BitVector
from .qec3 import bitflip_encode, bitflip_syndrome_and_correct
from .qsim import PauliString, apply_gate, apply_pauli_string, fidelity
from .qsim import overlap as state_overlap

BV = BitVector.from_string

# Reference data, frozen from independent derivations (coset enumeration,
# nullspace computation, and direct amplitude construction).
PARITY4_WORDS = {"0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"}
HAMMING74_WORDS = {
    "0000000", "0001011", "0010101", "0011110", "0100111", "0101100",
    "0110010", "0111001", "1000110", "1001101", "1010011", "1011000",
    "1100001", "1101010", "1110100", "1111111",
}
HAMMING74_DUAL_WORDS = {
    "0000000", "1110100", "1101010", "0111001",
    "0011110", "1010011", "1001101", "0100111",
}
HAMMING74_TABLE = {
    "000": "0000000", "110": "1000000", "111": "0100000", "101": "0010000",
    "011": "0001000", "100": "0000100", "010": "0000010", "001": "0000001",
}
REP3_TABLE = {"00": "000", "10": "100", "11": "010", "01": "001"}
PARITY4_COSETS = [
    {"0000", "1111"}, {"0011", "1100"}, {"0101", "1010"}, {"0110", "1001"},
]
PARITY4_QUANTUM_WORDS = {
    "0000": {"0000", "1111"},
    "0011": {"0011", "1100"},
    "0101": {"0101", "1010"},
    "0110": {"0110", "1001"},
}
HAMMING_QUANTUM_WORD_V2 = {
    "0001011", "1111111", "1100001", "0110010",
    "0010101", "1011000", "1000110", "0101100",
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _codes(registry: Optional[dict]) -> dict[str, LinearCode]:
    base = {name: named_code(name) for name in ("parity4", "hamming74", "rep3")}
    if registry:
        base.update(registry)
    return base


def _check_parity4_tables(codes: dict) -> tuple[bool, str]:
    par = codes["parity4"]
    words = {str(c) for c in par.codewords()}
    dual_words = {str(c) for c in par.dual().codewords()}
    ok = words == PARITY4_WORDS and dual_words == {"0000", "1111"} and par.distance == 2
    return ok, f"{len(words)} codewords, d={par.distance}, dual={sorted(dual_words)}"


def _check_hamming_tables(codes: dict) -> tuple[bool, str]:
    ham = codes["hamming74"]
    words = {str(c) for c in ham.codewords()}
    dual_words = {str(c) for c in ham.dual().codewords()}
    ok = words == HAMMING74_WORDS and dual_words == HAMMING74_DUAL_WORDS
    ok = ok and ham.weights == (3, 2, 1)
    return ok, f"{len(words)} codewords, (d,u,t)={ham.weights}"


def _check_hamming_syndrome_table(codes: dict) -> tuple[bool, str]:
    ham = codes["hamming74"]
    table = build_syndrome_table(ham, 1)
    got = {str(s): str(e) for s, e in table.entries.items()}
    return got == HAMMING74_TABLE, f"{len(got)} entries"


def _check_rep3_syndrome_table(codes: dict) -> tuple[bool, str]:
    table = build_syndrome_table(codes["rep3"], 1)
    got = {str(s): str(e) for s, e in table.entries.items()}
    return got == REP3_TABLE, f"{len(got)} entries"


def _check_decode_behaviors(codes: dict) -> tuple[bool, str]:
    ham = codes["hamming74"]
    table = build_syndrome_table(ham, 1)
    single = decode(ham, table, BV("1011110"))
    double = decode(ham, table, BV("1011111"))
    triple_syndrome = ham.syndrome(BV("1111111"))
    ok = (
        str(single.word) == "0011110"
        and single.status == "ok"
        and str(double.word) == "1111111"
        and triple_syndrome.is_zero()
    )
    return ok, f"corrected={single.word}, miscorrected={double.word}"


def _check_parity_cosets(codes: dict) -> tuple[bool, str]:
    par = codes["parity4"]
    q = quotient(par, par.dual())
    got = [{str(w) for w in c} for c in q.cosets()]
    ok = len(got) == 4 and all(c in got for c in PARITY4_COSETS)
    union = set().union(*got)
    ok = ok and len(union) == 8 and sum(len(c) for c in got) == 8
    return ok, f"{len(got)} disjoint cosets"


def _check_char_sums(codes: dict) -> tuple[bool, str]:
    bad = 0
    for name in ("parity4", "hamming74"):
        code = codes[name]
        dual_words = set(code.dual().codewords())
        for m in range(2**code.n):
            u = BitVector(m, code.n)
            expected = 2**code.k if u in dual_words else 0
            if code.char_sum(u) != expected:
                bad += 1
    return bad == 0, f"{bad} mismatches"


def _check_bitflip_observables(codes: dict) -> tuple[bool, str]:
    rng = np.random.default_rng(0)
    expected = {0: (1, 1), 1: (-1, 1), 2: (-1, -1), 3: (1, -1)}
    a, b = 0.6, 0.8j
    clean = bitflip_encode(a, b)
    for qubit, pair in expected.items():
        state = clean if qubit == 0 else apply_gate(clean, "X", qubit)
        z12 = apply_pauli_string(state, PauliString("ZZI"))
        z23 = apply_pauli_string(state, PauliString("IZZ"))
        g = (
            round(float(np.real(state_overlap(state, z12)))),
            round(float(np.real(state_overlap(state, z23)))),
        )
        if g != pair:
            return False, f"qubit {qubit}: got {g}, expected {pair}"
        outcome, fixed = bitflip_syndrome_and_correct(state, rng)
        if outcome != qubit or fidelity(fixed, clean) < 1 - 1e-9:
            return False, f"correction failed for qubit {qubit}"
    return True, "4 observable patterns and corrections"


def _check_css_parity_codewords(codes: dict) -> tuple[bool, str]:
    par = codes["parity4"]
    code = css_build(par, par.dual(), 0)
    amp = 1 / np.sqrt(2)
    for v_str, kets in PARITY4_QUANTUM_WORDS.items():
        state = css_codeword(code, BV(v_str))
        support = {
            state.ket_label(i): a for i, a in enumerate(state.amps) if abs(a) > 1e-12
        }
        if set(support) != kets:
            return False, f"v={v_str}: support {sorted(support)}"
        if any(abs(a - amp) > 1e-9 for a in support.values()):
            return False, f"v={v_str}: wrong amplitudes"
    states = [css_codeword(code, BV(v)) for v in PARITY4_QUANTUM_WORDS]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if abs(state_overlap(states[i], states[j])) > 1e-9:
                return False, "codewords are not orthogonal"
    return True, "4 codewords, amplitudes 1/sqrt(2), pairwise orthogonal"


def _check_css_hamming_codewords(codes: dict) -> tuple[bool, str]:
    ham = codes["hamming74"]
    code = css_build(ham, ham.dual(), 1)
    amp = 1 / np.sqrt(8)
    q1 = css_codeword(code, BV("0000000"))
    q2 = css_codeword(code, BV("0001011"))
    s1 = {q1.ket_label(i) for i, a in enumerate(q1.amps) if abs(a) > 1e-12}
    s2 = {q2.ket_label(i) for i, a in enumerate(q2.amps) if abs(a) > 1e-12}
    ok = s1 == HAMMING74_DUAL_WORDS and s2 == HAMMING_QUANTUM_WORD_V2
    ok = ok and all(abs(a - amp) < 1e-9 for a in q1.amps if abs(a) > 1e-12)
    ok = ok and abs(state_overlap(q1, q2)) < 1e-9
    return ok, "2 codewords, 8 kets each, orthogonal"


def _check_css_syndromes(codes: dict) -> tuple[bool, str]:
    ham = codes["hamming74"]
    code = css_build(ham, ham.dual(), 1)
    clean = css_codeword(code, BV("0000000"))
    rng = np.random.default_rng(1)
    expected_columns = {
        1: "110", 2: "111", 3: "101", 4: "011", 5: "100", 6: "010", 7: "001",
    }
    from .css import css_bit_syndrome, css_phase_syndrome

    for qubit, column in expected_columns.items():
        s, _ = css_bit_syndrome(code, apply_gate(clean, "X", qubit), rng)
        if str(s) != column:
            return False, f"bit syndrome qubit {qubit}: {s} != {column}"
        s, _ = css_phase_syndrome(code, apply_gate(clean, "Z", qubit), rng)
        if str(s) != column:
            return False, f"phase syndrome qubit {qubit}: {s} != {column}"
    for xq in range(1, 8):
        for zq in range(1, 8):
            corrupted = apply_gate(apply_gate(clean, "Z", zq), "X", xq)
            result = css_correct(code, corrupted, None, rng)
            if result.status != "ok" or fidelity(result.state, clean) < 1 - 1e-9:
                return False, f"combined X{xq} Z{zq} not corrected"
    return True, "7 bit + 7 phase syndromes, 49 combined corrections"


def _check_basis_identities(codes: dict) -> tuple[bool, str]:
    par = codes["parity4"]
    code = css_build(par, par.dual(), 0)
    report = verify_basis_identities(
        code, [BV("0000"), BV("0001")], [BV("0000"), BV("0001")]
    )
    dev = max(
        report.orthonormality_deviation,
        report.phase_branch_deviation,
        report.completeness_deviation,
    )
    return dev <= 1e-9, f"{report.states} states, max deviation {dev:.2e}"


def _check_distillation(codes: dict) -> tuple[bool, str]:
    ham = codes["hamming74"]
    code = css_build(ham, ham.dual(), 1)
    rng = np.random.default_rng(2)
    cases = 0
    for e1_pos in (None, 0, 3, 6):
        for e2_pos in (None, 1, 4, 6):
            e1, e2 = (BitVector(0 if p is None else 1 << (6 - p), 7) for p in (e1_pos, e2_pos))
            session = inject_bob_errors(create_epr(7, code), e1, e2)
            ak, bk, _ = run_distillation(session, rng)
            if ak != bk:
                return False, f"key mismatch at e1={e1_pos}, e2={e2_pos}"
            cases += 1
    return True, f"{cases} error patterns, all keys agree"


def _check_shor_preskill_sweep(codes: dict) -> tuple[bool, str]:
    ham = codes["hamming74"]
    quot = quotient(ham, ham.dual())
    table = build_syndrome_table(ham, ham.corrects)
    x = BV("1010101")
    u = BV("0111001")
    for pattern in range(8):
        e1 = BitVector(1 << (7 - pattern) if pattern else 0, 7)
        derivation = shor_preskill_keys(ham, quot, table, x, u, x + e1)
        if derivation.decode_status != "ok" or derivation.alice_key != derivation.bob_key:
            return False, f"pattern {pattern}: keys differ"
    return True, "8 single-error patterns, keys always agree"


def _check_bennett_bound(codes: dict) -> tuple[bool, str]:
    value = bennett_bound(5)
    ok = abs(value - 0.0451) <= 1e-4 and abs(bennett_bound(6) - value / 2) < 1e-15
    return ok, f"bound(5) = {value:.6f}"


def _check_bb84_smoke(codes: dict) -> tuple[bool, str]:
    ham = codes["hamming74"]
    quiet = SessionConfig(n=7, seed=9, mode="shor_preskill", codes=(ham, ham.dual()))
    t = run_session(quiet)
    if t.aborted or not t.keys_match or t.mismatches != 0:
        return False, "noiseless run should agree with zero mismatches"
    rerun = run_session(
        SessionConfig(n=7, seed=9, mode="shor_preskill", codes=(ham, ham.dual()))
    )
    if t.to_json() != rerun.to_json():
        return False, "transcripts are not reproducible"
    noisy = run_session(
        SessionConfig(
            n=50,
            seed=9,
            mode="standard",
            eve=EveStrategy(kind="intercept_resend"),
            t_abort=0,
        )
    )
    if not noisy.aborted:
        return False, "full intercept-resend with t_abort=0 should abort"
    return True, "noiseless agreement, reproducibility, abort-on-attack"


def _check_intercept_stats(codes: dict) -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    eve = EveStrategy(kind="intercept_resend")
    channel = ChannelModel()
    trials = 4000
    sifted = errors = 0
    bits = rng.integers(0, 2, size=trials)
    bases = rng.integers(0, 2, size=trials)
    for i in range(trials):
        basis, bob_bit, _ = transmit_qubit(int(bits[i]), int(bases[i]), channel, eve, rng)
        if basis == bases[i]:
            sifted += 1
            errors += int(bob_bit != bits[i])
    qber = errors / sifted
    sigma = 3 * np.sqrt(0.25 * 0.75 / sifted)
    return abs(qber - 0.25) <= sigma, f"qber {qber:.4f} over {sifted} sifted bits"


CHECKS: tuple[tuple[str, Callable[[dict], tuple[bool, str]]], ...] = (
    ("parity4 codeword and dual listings", _check_parity4_tables),
    ("hamming74 codeword and dual listings", _check_hamming_tables),
    ("hamming74 single-error syndrome table", _check_hamming_syndrome_table),
    ("rep3 single-error syndrome table", _check_rep3_syndrome_table),
    ("decode: correction, miscorrection, undetected", _check_decode_behaviors),
    ("parity4 coset partition", _check_parity_cosets),
    ("character-sum identities", _check_char_sums),
    ("bit-flip code observable table", _check_bitflip_observables),
    ("parity-pair quantum codewords", _check_css_parity_codewords),
    ("hamming-pair quantum codewords", _check_css_hamming_codewords),
    ("hamming-pair syndromes and combined correction", _check_css_syndromes),
    ("generalized-basis identities", _check_basis_identities),
    ("entangled-pair distillation key agreement", _check_distillation),
    ("code-based key derivation sweep", _check_shor_preskill_sweep),
    ("information bound values", _check_bennett_bound),
    ("protocol smoke runs", _check_bb84_smoke),
    ("intercept-resend error rate", _check_intercept_stats),
)


def run_all_checks(registry: Optional[dict] = None) -> list[CheckResult]:
    """Run the full battery; a corrupted entry in `registry` makes the
    dependent checks fail by name."""
    codes = _codes(registry)
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn(codes)
        except Exception as exc:  # a broken input should name the check, not crash
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return results


def report_json(results: list[CheckResult]) -> str:
    return json.dumps(
        {
            "passed": sum(r.passed for r in results),
            "failed": sum(not r.passed for r in results),
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
