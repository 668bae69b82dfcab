"""Dense-matrix oracles for the simulator and the BB84 transport.

Every structured operation (reshaped gate application, the index-gather
CNOT, mask-based Pauli strings, the fast Hadamard transform, observable
measurement) is checked here against explicit operator matrices built
with kron products, on random states. The simulator's kernels are also
checked exactly against the slower forms they replaced (the axis-moving
gate kernel, the axis-flipping CNOT, the gate-loop Pauli string, the
running-sum outcome draw, the copying collapse that divided by the
norm, the dense cumulative draw of measure_all_z, the loop-built CSS
codeword, the EPR state built per round), the one Pauli kernel on
dense and support states against a per-call mask formula, the
closed-form batched BB84 transport against the per-qubit state-vector
transport, draw for draw, the session's index arrays against the
tuple stages they replaced, distillation's css_correct round
against the inline Bob half it replaced and against the same round on
dense states, the kernels on a state's support against that per-call
formula on both branches of every measurement a round makes, and BB84's
Shor-Preskill tail against distillation, also on supports past the
dense limit, where a test-local CSS stabilizer tableau follows every
measurement and Pauli of distillation and css correct rounds. The
oracles reduce over whole states in 2^13-amplitude blocks, as the
simulator does, so that they agree bit for bit under any BLAS thread
count. Slow and memory-hungry by design; sizes stay small.
"""

import copy
import io
import itertools
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qkdforge
from qkdforge import bb84, css, distill
from qkdforge.bb84 import (
    BASIS_X,
    BASIS_Z,
    ChannelModel,
    EveStrategy,
    SessionConfig,
    _thresholds,
    _transport,
    run_session,
    shor_preskill_keys,
)
from qkdforge.codes import code_from_generator, key_from_coset, named_code
from qkdforge.cli import main
from qkdforge.css import CssParams, css_build, css_codeword, css_correct, pauli_row
from qkdforge.distill import (
    DistillationReport,
    create_epr,
    inject_bob_errors,
    measure_alice_parameters,
    run_distillation,
)
from qkdforge.gf2 import BitMatrix, BitVector, mat_apply, solve_particular
from qkdforge.qec3 import random_error, rotation_error, shor_correct, shor_encode
from qkdforge.qsim import (
    GATES,
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
)
from qkdforge.qsim import _draw_outcome, _norm, _vdot

from test_codes import hamming15

BV = BitVector.from_string

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": GATES["H"],
}


def kron_chain(factors):
    out = np.array([[1.0]], dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def single_qubit_operator(n, qubit, gate):
    """Dense matrix for a gate on one qubit (1 = leftmost factor)."""
    return kron_chain([PAULI[gate] if q == qubit else I2 for q in range(1, n + 1)])


def cnot_operator(n, control, target):
    """Dense CNOT built from projectors: |0><0|_c (x) I + |1><1|_c (x) X_t."""
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    hold = kron_chain([p0 if q == control else I2 for q in range(1, n + 1)])
    flip = kron_chain(
        [p1 if q == control else PAULI["X"] if q == target else I2 for q in range(1, n + 1)]
    )
    return hold + flip


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n=n, amps=amps / np.linalg.norm(amps))


class TestGateOracle:
    @pytest.mark.parametrize("gate", ["X", "Y", "Z", "H"])
    def test_single_qubit_gates(self, gate):
        rng = np.random.default_rng(hash(gate) % 2**32)
        for n in (1, 2, 4):
            for qubit in range(1, n + 1):
                psi = random_state(rng, n)
                fast = apply_gate(psi, gate, qubit)
                dense = single_qubit_operator(n, qubit, gate) @ psi.amps
                assert np.allclose(fast.amps, dense, atol=1e-12)

    def test_cnot_all_orderings(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            for control in range(1, n + 1):
                for target in range(1, n + 1):
                    if control == target:
                        continue
                    psi = random_state(rng, n)
                    fast = apply_cnot(psi, control, target)
                    dense = cnot_operator(n, control, target) @ psi.amps
                    assert np.allclose(fast.amps, dense, atol=1e-12)

    def test_pauli_strings(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            factors = "".join(rng.choice(list("IXYZ"), size=n))
            psi = random_state(rng, n)
            fast = apply_pauli_string(psi, PauliString(factors))
            dense = kron_chain([PAULI[f] for f in factors]) @ psi.amps
            assert np.allclose(fast.amps, dense, atol=1e-12)

    def test_hadamard_transform(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            psi = random_state(rng, n)
            fast = hadamard_all(psi)
            dense = kron_chain([PAULI["H"]] * n) @ psi.amps
            assert np.allclose(fast.amps, dense, atol=1e-12)


class TestMeasurementOracle:
    def test_expectation_values_match_dense_form(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            factors = "".join(rng.choice(list("IXZ"), size=n))
            psi = random_state(rng, n)
            operator = kron_chain([PAULI[f] for f in factors])
            expectation = float(np.real(psi.amps.conj() @ operator @ psi.amps))
            p_plus = (1 + expectation) / 2
            trials = 4000
            plus = 0
            for _ in range(trials):
                (value,), _ = measure_paulis(psi, [PauliString(factors)], rng)
                plus += value == 1
            sigma = np.sqrt(trials * max(p_plus * (1 - p_plus), 1e-4))
            assert abs(plus - trials * p_plus) <= 3 * sigma

    def test_collapse_matches_projector(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 3)
        operator = kron_chain([PAULI[f] for f in "ZXZ"])
        (value,), collapsed = measure_paulis(psi, [PauliString("ZXZ")], rng)
        projector = (np.eye(8) + value * operator) / 2
        expected = projector @ psi.amps
        expected /= np.linalg.norm(expected)
        assert np.allclose(collapsed.amps, expected, atol=1e-9)


class TestStabilizerStructure:
    def test_nine_qubit_observables_commute(self):
        # The six intra-block Z pairs and two block-comparison X strings
        # measured during correction pairwise commute as dense operators.
        strings = [
            "ZZIIIIIII", "IZZIIIIII",
            "IIIZZIIII", "IIIIZZIII",
            "IIIIIIZZI", "IIIIIIIZZ",
            "XXXXXXIII", "IIIXXXXXX",
        ]
        dense = [kron_chain([PAULI[f] for f in s]) for s in strings]
        for i in range(len(dense)):
            for j in range(i + 1, len(dense)):
                assert np.allclose(dense[i] @ dense[j], dense[j] @ dense[i])

    def test_codewords_are_plus_one_eigenstates(self):
        clean = shor_encode(0.6, 0.8)
        for s in ("ZZIIIIIII", "IIIZZIIII", "XXXXXXIII", "IIIXXXXXX"):
            applied = apply_pauli_string(clean, PauliString(s))
            assert np.allclose(applied.amps, clean.amps, atol=1e-12)

    def test_discretization_of_superposed_error(self):
        # A coherent mix of no-error and two different Paulis on one qubit
        # still collapses to a perfectly corrected codeword every time.
        rng = np.random.default_rng(6)
        clean = shor_encode(0.6, 0.8)
        mix = (
            0.5 * clean.amps
            + 0.5 * apply_gate(clean, "X", 7).amps
            + np.sqrt(0.5) * apply_gate(clean, "Z", 2).amps
        )
        corrupted = StateVector(n=9, amps=mix / np.linalg.norm(mix))
        for _ in range(20):
            _, corrected = shor_correct(corrupted, rng)
            assert fidelity(corrected, clean) >= 1 - 1e-9


class TestCssOperatorOracle:
    def test_syndrome_observables_stabilize_codewords(self):
        ham = named_code("hamming74")
        pair = css_build(ham, ham.dual(), 1)
        for v in ("0000000", "0001011"):
            word = css_codeword(pair, BV(v))
            for row in pair.h1.rows:
                applied = apply_pauli_string(word, pauli_row(row, "Z"))
                assert np.allclose(applied.amps, word.amps, atol=1e-12)
            for row in pair.h2.rows:
                applied = apply_pauli_string(word, pauli_row(row, "X"))
                assert np.allclose(applied.amps, word.amps, atol=1e-12)

    def test_error_conjugation_shifts_eigenvalues(self):
        # Z-string eigenvalue flips exactly when the error pattern
        # anticommutes with it: parity of (row . e1).
        ham = named_code("hamming74")
        pair = css_build(ham, ham.dual(), 1)
        rng = np.random.default_rng(7)
        word = css_codeword(pair, BV("0001011"))
        for _ in range(10):
            e1 = BitVector.from_ints(rng.integers(0, 2, size=7))
            corrupted = word
            for i, bit in enumerate(e1):
                if bit:
                    corrupted = apply_gate(corrupted, "X", i + 1)
            for row in pair.h1.rows:
                applied = apply_pauli_string(corrupted, pauli_row(row, "Z"))
                sign = -1.0 if row.dot(e1) else 1.0
                assert np.allclose(applied.amps, sign * corrupted.amps, atol=1e-12)


# --- BB84 transport ----------------------------------------------------------


def dense_prepare(bit, basis):
    state = basis_state(BitVector.from_ints((bit,)))
    return apply_gate(state, "H", 1) if basis == BASIS_X else state


def dense_measure_in(state, basis, rng):
    if basis == BASIS_X:
        state = apply_gate(state, "H", 1)
    bits, state = measure_all_z(state, rng)
    if basis == BASIS_X:
        state = apply_gate(state, "H", 1)
    return bits[0], state


def dense_transmit_qubit(bit, basis, channel, eve, rng):
    """The per-qubit state-vector transport: prepare, let Eve measure and
    resend her eigenstate, apply the channel's flips, measure in Bob's
    random basis. One uniform per random decision, in that order."""
    state = dense_prepare(bit, basis)
    eve_learned = False
    if eve.kind == "intercept_resend":
        if eve.basis_policy == "uniform_random":
            eve_basis = BASIS_Z if rng.random() < 0.5 else BASIS_X
        elif eve.basis_policy == "always_Z":
            eve_basis = BASIS_Z
        else:
            eve_basis = BASIS_X
        _, state = dense_measure_in(state, eve_basis, rng)
        eve_learned = eve_basis == basis
    if rng.random() < channel.px:
        state = apply_gate(state, "X", 1)
    if rng.random() < channel.pz:
        state = apply_gate(state, "Z", 1)
    bob_basis = BASIS_Z if rng.random() < 0.5 else BASIS_X
    bob_bit, _ = dense_measure_in(state, bob_basis, rng)
    return bob_basis, bob_bit, eve_learned


def dense_outcome_rows():
    """(p0, p1) of every transport cell from the dense simulator, row
    ((((value*2 + basis)*2 + x_flip)*2 + z_flip)*2 + measured): the
    prepared qubit after the channel's X then Z flips, rotated into the
    measured basis, as |amplitude|^2."""
    rows = []
    for value, basis, x_flip, z_flip, measured in itertools.product((0, 1), repeat=5):
        state = dense_prepare(value, basis)
        if x_flip:
            state = apply_gate(state, "X", 1)
        if z_flip:
            state = apply_gate(state, "Z", 1)
        if measured == BASIS_X:
            state = apply_gate(state, "H", 1)
        rows.append(np.abs(state.amps) ** 2)
    return np.array(rows)


def dense_transport(d, b, channel, eve, rng):
    rows = [dense_transmit_qubit(int(x), int(y), channel, eve, rng) for x, y in zip(d, b)]
    bases, bits, learned = zip(*rows)
    return np.array(bases), np.array(bits), np.array(learned)


EVES = {
    "none": EveStrategy(),
    "uniform_random": EveStrategy("intercept_resend", "uniform_random"),
    "always_Z": EveStrategy("intercept_resend", "always_Z"),
    "always_X": EveStrategy("intercept_resend", "always_X"),
}
DRAWS_PER_QUBIT = {"none": 4, "uniform_random": 6, "always_Z": 5, "always_X": 5}
CHANNELS = [ChannelModel(), ChannelModel(0.1, 0.15), ChannelModel(0.5, 0.5), ChannelModel(1.0, 1.0)]

# Every uniform that can decide a measurement differently from its
# neighbours: 0, each cumulative sum of an outcome row (where r < acc
# flips), and the largest double below 1, which lies past every row whose
# round-off-short total sends the draw to the fallback branch.
_ROWS = dense_outcome_rows()
EDGE_DRAWS = sorted(
    {0.0, float(np.nextafter(1.0, 0.0))}
    | {float(acc) for acc in np.cumsum(_ROWS, axis=1).ravel() if acc < 1.0}
)


def where_draw_outcomes(r, probabilities):
    """The two-np.where outcome rule that the thresholds replaced: over
    rows of (p0, p1), r < p0 gives 0, r < p0 + p1 gives 1, and a draw
    beyond a round-off-short total falls back to the last outcome with
    nonzero probability."""
    p0, p1 = probabilities[:, 0], probabilities[:, 1]
    fallback = np.where(p1 > 0.0, 1, 0)
    return np.where(r < p0, 0, np.where(r < p0 + p1, 1, fallback))


class ScriptedRng:
    """Stands in for a Generator whose uniforms are given in advance."""

    def __init__(self, values):
        self.values = [float(v) for v in values]
        self.used = 0

    def random(self, size=None):
        count = 1 if size is None else int(np.prod(size))
        chunk = self.values[self.used:self.used + count]
        assert len(chunk) == count, "script ran out of draws"
        self.used += count
        return chunk[0] if size is None else np.array(chunk).reshape(size)


class CountingRng:
    """Wraps a Generator and counts the uniforms drawn through random()."""

    def __init__(self, seed):
        self.generator = np.random.default_rng(seed)
        self.uniforms = 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self.generator.random(size)


class TestTransportOracle:
    def test_thresholds_are_the_dense_outcome_rows(self):
        # p0 of the dense path's own |amplitude|^2 where p1 > 0, else +inf.
        thresholds = _thresholds()
        assert thresholds.shape == (32,) and not thresholds.flags.writeable
        assert np.array_equal(thresholds, np.where(_ROWS[:, 1] > 0.0, _ROWS[:, 0], np.inf))

    def test_outcome_rule_matches_draw_outcome_branch_for_branch(self):
        # r >= threshold against the two-np.where rule it replaced and the
        # dense simulator's draw, at every edge draw and at p0 and the
        # double just below it, for all 32 rows.
        fallbacks = 0
        for row, threshold in zip(_ROWS, _thresholds()):
            p0 = row[0]
            for r in sorted(set(EDGE_DRAWS) | {float(p0), float(np.nextafter(p0, 0.0))}):
                if r >= 1.0:
                    continue
                expected = _draw_outcome(ScriptedRng([r]), list(row))
                assert where_draw_outcomes(np.array([r]), row[None, :])[0] == expected
                assert int(r >= threshold) == expected, (row, r)
                fallbacks += r >= row[0] + row[1]
        assert fallbacks > 0  # some edge draw lands in the round-off fallback

    @pytest.mark.parametrize("eve", list(EVES))
    def test_batched_equals_dense_on_seeded_draws(self, eve):
        # A block of one qubit is a single-row draw; 60 holds every input.
        for size, seed, channel in itertools.product((1, 60), range(4), CHANNELS):
            inputs = np.random.default_rng([seed, 1])
            d, b = inputs.integers(0, 2, size=(2, size))
            batched_rng = np.random.default_rng(seed)
            dense_rng = np.random.default_rng(seed)
            batched = _transport(d, b, channel, EVES[eve], batched_rng)
            dense = dense_transport(d, b, channel, EVES[eve], dense_rng)
            for got, want in zip(batched, dense):
                assert np.array_equal(got, want), (size, seed, channel)
            assert batched_rng.bit_generator.state == dense_rng.bit_generator.state

    @pytest.mark.parametrize("eve", list(EVES))
    def test_batched_equals_dense_on_edge_draws(self, eve):
        # Every (bit, basis, flips, bases) combination meets every edge
        # draw in each measurement column, so both the r = 0 branch and
        # draws in [p0, 1), including the fallback, reach both paths.
        k = DRAWS_PER_QUBIT[eve]
        channel = ChannelModel(0.5, 0.5)
        choice = (0.25, 0.75)  # below / above 0.5: Z basis or flip / X basis or none
        eve_columns = {
            "none": [()],
            "uniform_random": itertools.product(choice, EDGE_DRAWS),
            "always_Z": itertools.product(EDGE_DRAWS),
            "always_X": itertools.product(EDGE_DRAWS),
        }[eve]
        rows, d, b = [], [], []
        for eve_draws, bit, basis, x, z, bob_basis, r in itertools.product(
            list(eve_columns), (0, 1), (0, 1), choice, choice, choice, EDGE_DRAWS
        ):
            rows.append(eve_draws + (x, z, bob_basis, r))
            d.append(bit)
            b.append(basis)
        draws = np.array(rows)
        assert draws.shape[1] == k
        batched = _transport(np.array(d), np.array(b), channel, EVES[eve], ScriptedRng(draws.ravel()))
        dense = dense_transport(d, b, channel, EVES[eve], ScriptedRng(draws.ravel()))
        for got, want in zip(batched, dense):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("eve", list(EVES))
    def test_one_qubit_transports_equal_dense(self, eve):
        # One-row calls in sequence on one generator, every (bit, basis).
        for channel in CHANNELS:
            rng, dense_rng = np.random.default_rng(9), np.random.default_rng(9)
            for bit, basis in itertools.product((0, 1), repeat=2):
                for _ in range(5):
                    got = _transport(np.array([bit]), np.array([basis]), channel, EVES[eve], rng)
                    want = dense_transmit_qubit(bit, basis, channel, EVES[eve], dense_rng)
                    assert tuple(v.item() for v in got) == want
            assert rng.bit_generator.state == dense_rng.bit_generator.state

    @pytest.mark.parametrize("eve", list(EVES))
    def test_draw_accounting(self, eve):
        # Each qubit consumes a fixed number of uniforms, whatever the
        # channel, and leaves the generator where the dense path does.
        k = DRAWS_PER_QUBIT[eve]
        for channel in (ChannelModel(), ChannelModel(0.3, 0.3)):
            counting, dense = CountingRng(3), CountingRng(3)
            d, b = np.random.default_rng(4).integers(0, 2, size=(2, 50))
            _transport(d, b, channel, EVES[eve], counting)
            dense_transport(d, b, channel, EVES[eve], dense)
            assert counting.uniforms == dense.uniforms == 50 * k
            assert counting.generator.bit_generator.state == dense.generator.bit_generator.state
            single = CountingRng(3)
            _transport(np.array([1]), np.array([BASIS_X]), channel, EVES[eve], single)
            assert single.uniforms == k


# --- Tuple-index oracles for the session's classical stages ------------------


def tuple_select_blocks(n, rng, sifted):
    """The tuple selection that the index arrays replaced: sorted twice,
    indexing a tuple with numpy integers."""
    picks = rng.choice(len(sifted), size=2 * n, replace=False)
    selected = tuple(sorted(sifted[p] for p in picks))
    check_picks = rng.choice(2 * n, size=n, replace=False)
    return selected, tuple(sorted(selected[p] for p in check_picks))


def tuple_key_indices(selected, check_idx):
    check_set = set(check_idx)
    return tuple(i for i in selected if i not in check_set)


def tuple_block(bits, idx):
    text = str(bits)
    return BitVector.from_string("".join([text[i] for i in idx]))


def tuple_mismatches(d, bob_bits, check_idx):
    return tuple_block(d + bob_bits, check_idx).weight()


def tuple_session(config):
    """run_session's front half and standard report on tuples of Python
    ints, as before the index arrays; returns the fields they set, Eve's
    flags as a tuple of bools among them, and the generator's end state."""
    rng = np.random.default_rng(config.seed)
    d = rng.integers(0, 2, size=config.raw_length)
    b = rng.integers(0, 2, size=config.raw_length)
    bob_bases, bob_bits, eve_learned = _transport(d, b, config.channel, config.eve, rng)
    d, bob_bits = BitVector.from_ints(d), BitVector.from_ints(bob_bits)
    eve_learned = tuple(eve_learned.tolist())
    sifted = tuple(np.flatnonzero(b == bob_bases).tolist())
    out = dict(eve_learned=eve_learned, sifted=sifted, selected=None, check_idx=None,
               key_idx=None, mismatches=None, alice_block=None, bob_block=None,
               pa_report=None, abort_reason=None)
    if config.mode == "shor_preskill":
        c1 = config.codes[0]
        c1.encode(BitVector.from_ints(rng.integers(0, 2, size=c1.k)))  # the codeword draw
    if len(sifted) < 2 * config.n:
        return dict(out, abort_reason="insufficient_sifted_bits"), rng.bit_generator.state
    selected, check_idx = tuple_select_blocks(config.n, rng, sifted)
    key_idx = tuple_key_indices(selected, check_idx)
    mismatches = tuple_mismatches(d, bob_bits, check_idx)
    out.update(selected=selected, check_idx=check_idx, key_idx=key_idx, mismatches=mismatches)
    if mismatches > config.t_abort:
        return dict(out, abort_reason="check_bit_errors"), rng.bit_generator.state
    alice_block, bob_block = tuple_block(d, key_idx), tuple_block(bob_bits, key_idx)
    out.update(alice_block=alice_block, bob_block=bob_block)
    if config.mode == "standard":
        learned = sum(1 for i in key_idx if eve_learned[i])
        out["pa_report"] = {
            "blockMismatches": (alice_block + bob_block).weight(),
            "r": learned,
            "s": config.shed_bits,
            "targetK": config.n - learned - config.shed_bits,
            "eveBound": bb84.bennett_bound(config.shed_bits),
        }
    return out, rng.bit_generator.state


def session_configs():
    """Both modes, every eavesdropper, n in {1, 7, 20, 200}; delta = 0
    and a zero check-error budget reach both early aborts."""
    c1 = named_code("hamming74")
    for eve, seed, delta, t_abort in itertools.product(
        EVES.values(), range(6), (0.0, 0.25), (0, None)
    ):
        channel = ChannelModel(0.05 * (seed % 3), 0.1)
        for n in (1, 7, 20, 200):
            yield SessionConfig(n=n, delta=delta, t_abort=t_abort, seed=seed,
                                channel=channel, eve=eve)
        yield SessionConfig(n=7, delta=delta, t_abort=t_abort, seed=seed, mode="shor_preskill",
                            channel=channel, eve=eve, codes=(c1, c1.dual()))


class TestSessionIndexOracle:
    def test_sessions_match_tuple_stages(self, monkeypatch):
        generators = []

        def spy(d, b, channel, eve, rng):
            generators.append(rng)
            return _transport(d, b, channel, eve, rng)

        monkeypatch.setattr(bb84, "_transport", spy)
        reasons = set()
        for config in session_configs():
            want, want_state = tuple_session(config)
            transcript = run_session(config)
            assert tuple(map(bool, transcript.eve_learned)) == want.pop("eve_learned"), config
            for name, value in want.items():
                assert getattr(transcript, name) == value, (name, config)
            assert generators.pop().bit_generator.state == want_state, config
            for name in ("selected", "check_idx", "key_idx", "sifted"):
                got = getattr(transcript, name)
                assert got is None or all(type(i) is int for i in got)
            assert type(transcript.mismatches) in (int, type(None))
            reasons.add((config.mode, transcript.abort_reason))
        assert {reason for _, reason in reasons} == {
            None, "insufficient_sifted_bits", "check_bit_errors"
        }
        assert {mode for mode, _ in reasons} == {"standard", "shor_preskill"}


# --- Distillation: Bob's inline correction round ----------------------------


def measure_rows(matrix, kind, state, rng, offset):
    syndrome = 0
    for row in matrix.rows:
        (eigenvalue,), state = measure_paulis(
            state, [pauli_row(row, kind, state.n, offset)], rng
        )
        syndrome = (syndrome << 1) | (eigenvalue == -1)
    return BitVector(syndrome, matrix.num_rows), state


def inline_run_distillation(code, joint, rng):
    """run_distillation with Bob's half written out as it was before it
    became one css_correct call: both of Bob's syndromes, then the shifts
    and table lookups, then the X and the Z correction."""
    x, z, alice_sx, alice_sz, joint = measure_alice_parameters(code, joint, rng)
    n = code.n
    bob_sx, joint = measure_rows(code.h1, "Z", joint, rng, n)
    bob_sz, joint = measure_rows(code.h2, "X", joint, rng, n)
    bit_key = bob_sx + mat_apply(code.h1, x, side="right")
    phase_key = bob_sz + mat_apply(code.h2, z, side="right")
    if bit_key not in code.bit_table or phase_key not in code.phase_table:
        raise ValueError("uncorrectable syndrome: errors exceed the code capacity")
    e1, e2 = code.bit_table[bit_key], code.phase_table[phase_key]
    joint = apply_pauli_string(joint, pauli_row(e1, "X", 2 * n, n))
    joint = apply_pauli_string(joint, pauli_row(e2, "Z", 2 * n, n))
    bits, _ = measure_all_z(joint, rng)
    alice_bits, bob_bits = bits[:n], bits[n:]
    report = DistillationReport(
        x, z, alice_sx, alice_sz, bob_sx, bob_sz, e1, e2, alice_bits, bob_bits
    )
    return (
        key_from_coset(code.quotient, alice_bits + x),
        key_from_coset(code.quotient, bob_bits + x),
        report,
    )


def dense_run_distillation(code, joint, rng):
    """run_distillation from a dense copy of the joint state, so that every
    kernel of the round takes the dense path."""
    return run_distillation(code, StateVector(joint.n, joint.amps), rng)


def distillation_patterns(n):
    """No error, every weight-1 error and one weight-2 error."""
    return [0] + [1 << i for i in range(n)] + [0b11 << (n - 2)]


def distill_or_error(run, code, e1, e2, seed):
    rng = np.random.default_rng(seed)
    joint = inject_bob_errors(create_epr(code.n), BitVector(e1, code.n), BitVector(e2, code.n))
    try:
        alice_key, bob_key, report = run(code, joint, rng)
    except ValueError as exc:
        return str(exc), None
    return (alice_key, bob_key, vars(report)), rng.bit_generator.state


class TestDistillationOracle:
    # parity4 runs every (e1, e2) pair at seeds 0-19; hamming74's 14-qubit
    # rounds cost more, so each of its pairs takes 4 of those seeds in turn.
    @pytest.mark.parametrize("name, seeds_per_pair", [("parity4", 20), ("hamming74", 4)])
    def test_css_correct_round_matches_inline_round(self, name, seeds_per_pair):
        c1 = named_code(name)
        code = css_build(c1, c1.dual())
        patterns = distillation_patterns(code.n)
        outcomes = set()
        for i, (e1, e2) in enumerate(itertools.product(patterns, patterns)):
            for seed in ((seeds_per_pair * i + k) % 20 for k in range(seeds_per_pair)):
                want, want_state = distill_or_error(inline_run_distillation, code, e1, e2, seed)
                got, got_state = distill_or_error(run_distillation, code, e1, e2, seed)
                case = (name, e1, e2, seed)
                assert got == want, case
                assert distill_or_error(dense_run_distillation, code, e1, e2, seed) == (
                    got, got_state), case
                # An uncorrectable bit syndrome now stops before Bob's phase
                # rows draw, so only completed rounds compare generator states.
                if want_state is not None:
                    assert got_state == want_state, case
                outcomes.add(isinstance(want, str))
        assert outcomes == ({False, True} if name == "parity4" else {False})


# --- Support-carrying states: the dense kernel as the oracle -----------------

LAST_DRAW = float(np.nextafter(1.0, 0.0))


def forced_branches_match_dense(state, pauli, work):
    """Collapse a state on its support onto both eigenvalues (draws 0 and
    the largest below 1), and its dense amplitudes, in work (dense_work of
    its qubit count), by the per-call mask formula and the branch rule
    written out here: the same outcome and the same bits on every nonzero
    component. Returns the two outcomes."""
    amps = work.amps
    assert amps.size == 2**state.n
    amps.fill(0.0)
    amps[state._index] = state._values
    applied = per_call_pauli_amps(amps, pauli.x, pauli.z, work)
    outcomes = []
    for draw in (0.0, LAST_DRAW):
        want_value, want = per_call_collapse(amps, applied, draw, work)
        (got_value,), got = measure_paulis(state, [pauli], ScriptedRng([draw]))
        assert got_value == want_value, (str(pauli), draw)
        assert got._index is not None, str(pauli)
        # Equal finite floats have equal bits unless both are zero; off
        # the support the dense collapse holds zeros only.
        assert np.array_equal(got._values.view(np.float64), want[got._index].view(np.float64))
        want[got._index] = 0.0
        assert not want.view(np.float64).any(), str(pauli)
        outcomes.append(got_value)
    return outcomes


class TestSupportKernelOracle:
    # Every state a distillation round measures, which carries its support,
    # collapsed onto both eigenvalues (draws 0 and the largest below 1) on
    # that support and by the per-call formula on its dense amplitudes:
    # every (e1, e2) on parity4, and every e1 with every third e2 on hamming74.
    # Each check matrix's rows are then measured in one call, which must
    # give what the rows measured one call each give from the same draws.
    @pytest.mark.parametrize("name, e2_step", [("parity4", 1), ("hamming74", 3)])
    def test_forced_branches_match_dense_kernel(self, name, e2_step, monkeypatch):
        c1 = named_code(name)
        code = css_build(c1, c1.dual())
        n, work = code.n, dense_work(2 * code.n)
        taken = set()

        def measure_both_branches(state, paulis, rng):
            twin, want_values, want = copy.deepcopy(rng), [], state
            for pauli in paulis:
                taken.update(forced_branches_match_dense(want, pauli, work))
                (value,), want = measure_paulis(want, [pauli], twin)
                want_values.append(value)
            values, got = measure_paulis(state, paulis, rng)
            assert values == want_values
            assert np.array_equal(got._index, want._index)
            assert got._values.tobytes() == want._values.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state
            return values, got

        monkeypatch.setattr(css, "measure_paulis", measure_both_branches)
        for e1, e2 in itertools.product(range(2**n), range(0, 2**n, e2_step)):
            joint = inject_bob_errors(create_epr(n), BitVector(e1, n), BitVector(e2, n))
            try:
                run_distillation(code, joint, np.random.default_rng(e1 << n | e2))
            except ValueError as exc:  # parity4 corrects nothing: some rounds stop
                assert "uncorrectable" in str(exc)
        assert taken == {1, -1}


# --- The paper's reduction: distillation against BB84's Shor-Preskill tail ---


def outcome_weights(state, label):
    """{label(ket): total |amplitude|^2} over the kets that carry weight."""
    weights = np.abs(state.amps) ** 2
    totals = {}
    for ket in np.flatnonzero(weights):
        key = label(int(ket))
        totals[key] = totals.get(key, 0.0) + weights[ket]
    return totals


def subspaces(n):
    """Every subspace of GF(2)^n, as a frozenset of ints."""
    found, frontier = set(), [frozenset([0])]
    while frontier:
        space = frontier.pop()
        if space not in found:
            found.add(space)
            frontier += [space | {w ^ v for w in space} for v in range(2**n) if v not in space]
    return found


def generator_rows(words, n):
    """Rows spanning the words: each word, in order, that the rows kept
    before it do not span."""
    rows, span = [], {0}
    for word in words:
        if word not in span:
            rows.append(format(word, f"0{n}b"))
            span |= {w ^ word for w in span}
    return tuple(rows)


def nested_pair_classes(n):
    """One (C1 rows, C2 rows) per class, under coordinate permutations, of
    the nested pairs C2 < C1 of length n with 1 <= k2 < k1 <= n - 1: the
    member whose sorted codeword tuples come first. Also returns how many
    pairs there are."""
    spaces = [s for s in subspaces(n) if 1 < len(s) < 2**n]
    pairs = [(s1, s2) for s1 in spaces for s2 in spaces if s2 < s1]

    def permuted(space, perm):
        return tuple(sorted(
            sum((w >> (n - 1 - p) & 1) << (n - 1 - i) for i, p in enumerate(perm))
            for w in space))

    perms = list(itertools.permutations(range(n)))
    classes = {min((permuted(s1, p), permuted(s2, p)) for p in perms) for s1, s2 in pairs}
    return [(generator_rows(w1, n), generator_rows(w2, n)) for w1, w2 in sorted(classes)], len(pairs)


# No length-4 pair corrects an error (the one length-4 code with d >= 3 is
# the repetition code, which has no proper nonzero subcode), so t = 0.
N4_CLASSES, N4_PAIRS = nested_pair_classes(4)
# Generator rows of C1 and C2. The two t-below-c1 pairs are the length-5
# classes, under coordinate permutations, where C2's dual corrects less
# than C1: C1 = <00111, 11001> corrects one error, but the dual of
# C2 = <00111> holds 10000 and that of C2 = <11110> holds 00001, so
# css_build's t is 0 and a weight-1 e1 stops css_correct's bit round.
REDUCTION_PAIRS = {
    "t-below-c1": (("00111", "11001"), ("00111",)),
    "t-below-c1-11110": (("00111", "11001"), ("11110",)),
    **{f"n4-{'.'.join(c1)}-{'.'.join(c2)}": (c1, c2) for c1, c2 in N4_CLASSES},
}
# A fixed handful of phase errors per code; on parity4 (t = 0) each nonzero
# one stops css_correct's phase round whenever the bit round passes.
REDUCTION_E2 = {
    "parity4": (0b0000, 0b0001, 0b0110),
    "hamming74": (0, 0b0000001, 0b0110000),
    "t-below-c1": (0,),
    "t-below-c1-11110": (0,),
}
N4_E2 = (0b0000, 0b0001, 0b0110)
REDUCTION_STATUSES = {
    "parity4": {"ok", "detected_uncorrectable", "bit stop"},
    "hamming74": {"ok"},
    "t-below-c1": {"ok", "bit stop"},
    "t-below-c1-11110": {"ok", "bit stop"},
}


def reduction_code(name):
    """css_build on a named code and its dual, or on a pair of REDUCTION_PAIRS."""
    if name in REDUCTION_PAIRS:
        c1, c2 = (code_from_generator(BitMatrix.from_strings(rows)) for rows in REDUCTION_PAIRS[name])
        return css_build(c1, c2)
    c1 = named_code(name)
    return css_build(c1, c1.dual())


# A pair with t = 1 whose C2-dual is not C1, found by a random search over
# [10, 6, 3] codes and their 4-dimensional subcodes: C1 and C2-dual both have
# distance 3, and the key has 2 bits.
N10_PAIR = (
    ("0100101010", "0011101000", "1110100101", "0100011100", "1111011111", "0101001011"),
    ("0011000101", "0010111111", "1100101100", "0111110100"),
)
# h15 and its dual: every e1 of weight <= 1 with e2 = 0 or 1 << 9 (30
# qubits on 2^15 kets); the n = 10 pair: every e1 of weight <= 2, past its
# capacity, with e2 = 0, one of weight 1 and 0b11, whose syndrome is outside
# the phase table.
SUPPORT_REDUCTION_ERRORS = {
    "h15": ([0] + [1 << i for i in range(15)], (0, 1 << 9)),
    "n10-t1": ([e for e in range(2**10) if e.bit_count() <= 2], (0, 1 << 3, 0b11)),
}


def support_reduction_code(name):
    if name == "h15":
        c1 = hamming15()
        return css_build(c1, c1.dual())
    return css_build(*(code_from_generator(BitMatrix.from_strings(rows)) for rows in N10_PAIR))


def parities(index, rows):
    """Each ket's GF(2) parities with the int masks rows, first row in the
    top bit: the labels of a whole index array at once."""
    label = np.zeros(index.shape, dtype=np.int64)
    for row in rows:
        label = label << 1 | (np.bitwise_count(index & row) & 1)
    return label


def key_rows(code):
    """Masks K_j with key_from_coset(u) bit j = parity(u & K_j) for every u
    in C1: the key is linear on C1, so K_j solves G1.K_j^T = bit j of the
    keys of C1's generator rows."""
    keys = [key_from_coset(code.quotient, g).value for g in code.c1.G.rows]
    width = code.quotient.key_length
    return [
        solve_particular(code.c1.G, BitVector.from_ints([key >> (width - 1 - j) & 1 for key in keys])).value
        for j in range(width)
    ]


def label_weights(labels, values):
    """{label: total |amplitude|^2} over a support's kets."""
    found, inverse = np.unique(labels, return_inverse=True)
    return dict(zip(found.tolist(), np.bincount(inverse, weights=np.abs(values) ** 2).tolist()))


class TestShorPreskillReduction:
    """Shor and Preskill's reduction (PRL 85, 441 (2000)): after Alice's
    round leaves x announced, reading Alice's block a and Bob's block b in
    the Z basis and running BB84's tail shor_preskill_keys(a, a + x, b)
    gives the same distribution of (Alice key, decode status, Bob key) as
    css_correct on Bob's qubits followed by keying (a + x, b + x). Z
    outcomes do not see phase errors, so where css_correct stops on a
    phase syndrome its bit round alone is compared."""

    def test_length_4_classes_cover_every_nested_pair(self):
        assert (len(N4_CLASSES), N4_PAIRS) == (39, 315)

    @pytest.mark.parametrize("name", ("parity4", "hamming74", *REDUCTION_PAIRS))
    def test_bb84_tail_matches_distillation(self, name):
        code = reduction_code(name)
        n, mask = code.n, (1 << code.n) - 1
        e2s = REDUCTION_E2.get(name, N4_E2)
        statuses = set()
        for e1, e2 in itertools.product(range(2**n), e2s):
            case = (name, e1, e2)
            joint = inject_bob_errors(create_epr(n), BitVector(e1, n), BitVector(e2, n))
            x, z, _, _, joint = measure_alice_parameters(code, joint, np.random.default_rng(e1 << n | e2))

            def bb84_tail(ket):
                a, b = BitVector(ket >> n, n), BitVector(ket & mask, n)
                keys = shor_preskill_keys(code.c1, code.c2, a, a + x, b)
                return keys.alice_key, keys.decode_status, keys.bob_key

            def distilled(ket):
                a, b = BitVector(ket >> n, n), BitVector(ket & mask, n)
                return (key_from_coset(code.quotient, a + x), "ok",
                        key_from_coset(code.quotient, b + x))

            want = outcome_weights(joint, bb84_tail)
            # Bob's syndromes are fixed by Alice's, so any draws serve.
            bob = css_correct(code, joint, CssParams(x, z), np.random.default_rng(e1), n)
            if bob.phase_syndrome is None:  # the bit round stopped
                assert all(status != "ok" for _, status, _ in want), case
                statuses.add("bit stop")
                continue
            statuses.add(bob.status)
            got = outcome_weights(bob.state, distilled)
            for key in want.keys() | got.keys():
                assert abs(want.get(key, 0.0) - got.get(key, 0.0)) <= 1e-9, (case, key)
        if name in REDUCTION_STATUSES:
            assert statuses == REDUCTION_STATUSES[name]
        else:  # t = 0: e1 = 0 passes, an e1 outside C1 stops, an e2 outside C2's dual stops
            phase_stop = any(not code.c2.dual().contains(BitVector(e2, n)) for e2 in e2s)
            assert code.t == 0
            assert statuses == {"ok", "bit stop"} | ({"detected_uncorrectable"} if phase_stop else set())

    # Past the dense limit, the (Alice key, decode status, Bob key) label of
    # every ket of a support is read off whole index arrays, Bob's decode a
    # lookup of the syndrome H1.(b + x)^T in the code's bit table, and
    # checked against shor_preskill_keys and key_from_coset on a sample of kets.
    @pytest.mark.parametrize("name", SUPPORT_REDUCTION_ERRORS)
    def test_bb84_tail_matches_distillation_on_supports(self, name):
        code = support_reduction_code(name)
        n, mask, width = code.n, (1 << code.n) - 1, code.quotient.key_length
        keys, checks = key_rows(code), [row.value for row in code.h1.rows]
        errors = np.full(2 ** len(checks), -1, dtype=np.int64)
        for syndrome, error in code.bit_table.items():
            errors[syndrome.value] = error.value

        def pack(alice_key, status, bob_key):
            return alice_key.value << width + 1 | (status == "ok") << width | (bob_key.value if bob_key else 0)

        e1s, e2s = SUPPORT_REDUCTION_ERRORS[name]
        statuses = set()
        for e1, e2 in itertools.product(e1s, e2s):
            case = (name, e1, e2)
            joint = inject_bob_errors(create_epr(n), BitVector(e1, n), BitVector(e2, n))
            x, z, _, _, joint = measure_alice_parameters(code, joint, np.random.default_rng(e1 << n | e2))
            index = joint._index
            a, b, step = index >> n, index & mask, max(1, index.size // 32)
            # The announcement x - u is a + (a + x) = x: Bob decodes b + x.
            error = errors[parities(b ^ x.value, checks)]
            ok = error >= 0
            tail = parities(a ^ x.value, keys) << width + 1 | ok << width | np.where(
                ok, parities(b ^ x.value ^ error, keys), 0)
            for ket, label in zip(index[::step].tolist(), tail[::step].tolist()):
                alice, bob = BitVector(ket >> n, n), BitVector(ket & mask, n)
                sp = shor_preskill_keys(code.c1, code.c2, alice, alice + x, bob)
                assert pack(sp.alice_key, sp.decode_status, sp.bob_key) == label, (case, ket)
            want = label_weights(tail, joint._values)
            bob = css_correct(code, joint, CssParams(x, z), np.random.default_rng(e1), n)
            if bob.phase_syndrome is None:  # the bit round stopped
                assert not ok.any(), case
                statuses.add("bit stop")
                continue
            statuses.add(bob.status)
            index = bob.state._index
            a, b, step = index >> n, index & mask, max(1, index.size // 32)
            distilled = parities(a ^ x.value, keys) << width + 1 | 1 << width | parities(b ^ x.value, keys)
            for ket, label in zip(index[::step].tolist(), distilled[::step].tolist()):
                alice, bob_bits = BitVector(ket >> n, n), BitVector(ket & mask, n)
                assert pack(key_from_coset(code.quotient, alice + x), "ok",
                            key_from_coset(code.quotient, bob_bits + x)) == label, (case, ket)
            got = label_weights(distilled, bob.state._values)
            for key in want.keys() | got.keys():
                assert abs(want.get(key, 0.0) - got.get(key, 0.0)) <= 1e-9, (case, key)
        assert statuses == ({"ok"} if name == "h15" else {"ok", "detected_uncorrectable", "bit stop"})


# --- A CSS stabilizer tableau: structure where no dense oracle reaches --------


def pauli_kind_mask(pauli, n):
    """(kind, mask) of an X-only or Z-only string, read off its factors."""
    factors = str(pauli)
    assert len(factors) == n and (set(factors) <= {"I", "X"} or set(factors) <= {"I", "Z"}), factors
    kind = "Z" if "Z" in factors else "X"
    return kind, int(factors.replace("I", "0").replace(kind, "1"), 2)


class CssTableau:
    """The stabilizer group of a CSS state on nqubits qubits (Gottesman,
    PhD thesis, Caltech, 1997; Aaronson and Gottesman, PRA 70, 052328
    (2004)), kept as X-type and Z-type generators, each a (mask, sign) pair
    for (-1)^sign X_mask or (-1)^sign Z_mask, of which the state is the +1
    eigenstate. Distillation and css correct only apply and measure X-only
    and Z-only strings, so the split survives every step and no Y phase
    needs tracking. Exact: no floats."""

    def __init__(self, nqubits, x_gens, z_gens):
        self.nqubits, self.gens = nqubits, {"X": list(x_gens), "Z": list(z_gens)}
        self.rows = {"deterministic": 0, "random": 0}

    @classmethod
    def epr(cls, n):
        pairs = [1 << (2 * n - 1 - i) | 1 << (n - 1 - i) for i in range(n)]
        return cls(2 * n, [(m, 0) for m in pairs], [(m, 0) for m in pairs])

    @classmethod
    def codeword(cls, code, v, params):
        """sum_{w in C2} (-1)^(w.z) |v + w + x>: X_g for g in C2 with sign
        g.z, and Z_h for h in C2-dual with sign h.(v + x)."""
        shift = (v + params.x).value
        return cls(
            code.n,
            [(g.value, (g.value & params.z.value).bit_count() & 1) for g in code.c2.G.rows],
            [(h.value, (h.value & shift).bit_count() & 1) for h in code.c2.H.rows],
        )

    def apply(self, kind, mask):
        """A Pauli flips the sign of every generator of the other type it
        anticommutes with."""
        other = "Z" if kind == "X" else "X"
        self.gens[other] = [(m, s ^ ((m & mask).bit_count() & 1)) for m, s in self.gens[other]]

    def sign(self, kind, mask):
        """The sign with which the group holds the kind-string mask, found by
        elimination over the same-type generators, or None if it does not."""
        reduced = []  # (mask, sign), each with a distinct top bit
        for m, s in self.gens[kind]:
            for r, t in reduced:
                if m ^ r < m:
                    m, s = m ^ r, s ^ t
            if m:
                reduced.append((m, s))
                reduced.sort(reverse=True)
        sign = 0
        for r, t in reduced:
            if mask ^ r < mask:
                mask, sign = mask ^ r, sign ^ t
        return None if mask else sign

    def measure(self, kind, mask, eigenvalue):
        """Follow the measurement of the kind-string mask with the given
        outcome: certain when it commutes with the whole group, and then it
        must be the group's sign; otherwise it replaces one anticommuting
        generator, whose product with each other one stays in the group."""
        gens = self.gens["Z" if kind == "X" else "X"]
        anti = [i for i, (m, _) in enumerate(gens) if (m & mask).bit_count() & 1]
        if not anti:
            self.rows["deterministic"] += 1
            assert eigenvalue == (-1) ** self.sign(kind, mask), (kind, mask)
            return
        self.rows["random"] += 1
        pm, ps = gens[anti[0]]
        for i in anti[1:]:
            gens[i] = (gens[i][0] ^ pm, gens[i][1] ^ ps)
        del gens[anti[0]]
        self.gens[kind].append((mask, int(eigenvalue == -1)))

    def check(self, state):
        """The state the group fixes, on its support: every ket has each
        Z-type generator's parity, the support holds 2^(nqubits - #Z-type)
        kets of equal weight, and each X-type generator maps a sample of the
        kets onto the support with its sign."""
        index, values = state._index, state._values
        assert state.n == self.nqubits and index is not None
        assert len(self.gens["X"]) + len(self.gens["Z"]) == self.nqubits
        for m, s in self.gens["Z"]:
            assert np.all(np.bitwise_count(index & m) & 1 == s), (m, s)
        assert index.size == 2 ** (self.nqubits - len(self.gens["Z"]))
        assert np.allclose(np.abs(values) ** 2, 1.0 / index.size, rtol=0.0, atol=1e-12)
        sample = np.arange(0, index.size, max(1, index.size // 16))
        for m, s in self.gens["X"]:
            image = np.searchsorted(index, index[sample] ^ m).clip(max=index.size - 1)
            assert np.array_equal(index[image], index[sample] ^ m), (m, s)
            assert np.allclose(values[image], (-1) ** s * values[sample], rtol=0.0, atol=1e-12), (m, s)

    def assert_corrected(self, code, params, offset):
        """After css_correct: each H1 Z-string on the block is certain with
        sign H1.x^T and each H2 X-string with sign H2.z^T."""
        shift = self.nqubits - offset - code.n
        for kind, check, word in (("Z", code.h1, params.x), ("X", code.h2, params.z)):
            for row in check.rows:
                assert self.sign(kind, row.value << shift) == (row.value & word.value).bit_count() & 1, (kind, row)


def follow_with_tableau(monkeypatch):
    """Route the measure_paulis and apply_pauli_string calls of css and
    distill through the real kernels, each followed on the tableau that
    the returned holder's .tableau names and then checked against the
    state it returns."""
    held = SimpleNamespace(tableau=None)

    def measure(state, paulis, rng):
        values, out = measure_paulis(state, paulis, rng)
        for pauli, value in zip(paulis, values):
            held.tableau.measure(*pauli_kind_mask(pauli, state.n), value)
        held.tableau.check(out)
        return values, out

    def apply(state, pauli):
        out = apply_pauli_string(state, pauli)
        held.tableau.apply(*pauli_kind_mask(pauli, state.n))
        held.tableau.check(out)
        return out

    monkeypatch.setattr(css, "measure_paulis", measure)
    monkeypatch.setattr(css, "apply_pauli_string", apply)
    monkeypatch.setattr(distill, "apply_pauli_string", apply)
    return held


def tableau_code(name):
    c1 = hamming15() if name == "h15" else named_code(name)
    return css_build(c1, c1.dual())


# parity4 runs every (e1, e2); hamming74 every (e1, e2) of weight <= 1 and
# every e1 once more, with e2 = 37 e1 mod 128, so every e2 appears too; h15
# every e1 of weight <= 1 with e2 = 0 and e2 = 1 << 9, on 30 qubits for
# distillation.
def tableau_errors(name, n):
    light = [0] + [1 << i for i in range(n)]
    if name == "parity4":
        return list(itertools.product(range(2**n), range(2**n)))
    if name == "h15":
        return list(itertools.product(light, (0, 1 << 9)))
    return list(itertools.product(light, light)) + [(e1, 37 * e1 % 2**n) for e1 in range(2**n)]


class TestCssTableauOracle:
    @pytest.mark.parametrize("name", ("parity4", "hamming74", "h15"))
    def test_distillation_rounds_follow_the_tableau(self, name, monkeypatch):
        code = tableau_code(name)
        n, held, rows, rounds = code.n, follow_with_tableau(monkeypatch), Counter(), 0
        for e1, e2 in tableau_errors(name, n):
            held.tableau = CssTableau.epr(n)
            joint = inject_bob_errors(create_epr(n), BitVector(e1, n), BitVector(e2, n))
            try:
                *_, report = run_distillation(code, joint, np.random.default_rng(e1 << n | e2))
            except ValueError as exc:  # parity4 corrects nothing: some rounds stop
                assert "uncorrectable" in str(exc)
            else:
                held.tableau.assert_corrected(code, CssParams(report.x, report.z), n)
                rounds += 1
            rows.update(held.tableau.rows)
        assert rows["deterministic"] and rows["random"] and rounds

    @pytest.mark.parametrize("name", ("parity4", "hamming74", "h15"))
    def test_css_correct_rounds_follow_the_tableau(self, name, monkeypatch):
        code = tableau_code(name)
        n, held, rows, rounds = code.n, follow_with_tableau(monkeypatch), Counter(), 0
        draws = np.random.default_rng(7)
        for e1, e2 in tableau_errors(name, n):
            v = code.quotient.representative(BitVector(int(draws.integers(2**code.k)), code.k))
            params = CssParams(*(BitVector(int(w), n) for w in draws.integers(2**n, size=2)))
            held.tableau = CssTableau.codeword(code, v, params)
            state = css_codeword(code, v, params)
            held.tableau.check(state)
            state = css.apply_pauli_string(state, pauli_row(BitVector(e2, n), "Z"))
            state = css.apply_pauli_string(state, pauli_row(BitVector(e1, n), "X"))
            result = css_correct(code, state, params, np.random.default_rng(e1 << n | e2))
            if result.status == "ok":
                held.tableau.assert_corrected(code, params, 0)
                rounds += 1
            rows.update(held.tableau.rows)
        # A codeword with Pauli errors is an eigenstate of every check row.
        assert rows["deterministic"] and not rows["random"] and rounds


# --- Exact oracles for the simulator kernels ---------------------------------


def moveaxis_apply_single(amps, n, qubit, matrix):
    """The axis-moving single-qubit kernel that the reshaped one replaced."""
    tensor = amps.reshape((2,) * n)
    moved = np.moveaxis(tensor, qubit - 1, 0).reshape(2, -1)
    out = matrix @ moved
    out = np.moveaxis(out.reshape((2,) + (2,) * (n - 1)), 0, qubit - 1)
    return out.reshape(-1)


def flip_cnot(amps, n, control, target):
    """The axis-flipping CNOT that the index gather replaced."""
    tensor = amps.reshape((2,) * n).copy()
    selector = [slice(None)] * n
    selector[control - 1] = 1
    sub_axis = target - 1 if target < control else target - 2
    tensor[tuple(selector)] = np.flip(tensor[tuple(selector)], axis=sub_axis)
    return tensor.reshape(-1)


def gate_loop_pauli(amps, n, factors):
    """The per-factor Pauli string that the (x, z) mask form replaced."""
    for position, factor in enumerate(factors, start=1):
        if factor != "I":
            amps = moveaxis_apply_single(amps, n, position, GATES[factor])
    return amps


def loop_draw_outcome(rng, probabilities):
    """The running-sum loop that the cumulative search replaced."""
    r = rng.random()
    acc = 0.0
    for i, p in enumerate(probabilities):
        acc += p
        if r < acc:
            return i
    for i in range(len(probabilities) - 1, -1, -1):
        if probabilities[i] > 0.0:
            return i
    raise ValueError("all outcome probabilities are zero")


ORACLE_BLOCK = 2**13


def block_sum(dot, a, b):
    """dot(a, b) over the blocks a[0:2^13], a[2^13:2^14], ..., added one
    by one in index order to the first block's value."""
    total = None
    for start in range(0, a.size, ORACLE_BLOCK):
        part = dot(a[start : start + ORACLE_BLOCK], b[start : start + ORACLE_BLOCK])
        total = part if total is None else total + part
    return total


def block_vdot(a, b):
    return block_sum(np.vdot, a, b)


def block_norm(amps):
    """np.linalg.norm's sum, Re.Re + Im.Im, each term block by block."""
    re, im = amps.real, amps.imag
    return np.sqrt(block_sum(np.dot, re, re) + block_sum(np.dot, im, im))


def dividing_measure_row(state, pauli, rng):
    """The copying observable measurement that the in-place collapse
    replaced: a new sum or difference array, divided by its real norm
    (numpy's complex division), copied again into the new state."""
    applied = apply_pauli_string(state, pauli).amps
    expectation = float(np.real(block_vdot(state.amps, applied)))
    p_plus = min(max((1.0 + expectation) / 2.0, 0.0), 1.0)
    eigenvalue = +1 if rng.random() < p_plus else -1
    collapsed = state.amps + applied if eigenvalue == 1 else state.amps - applied
    collapsed = collapsed / block_norm(collapsed)
    return eigenvalue, StateVector(n=state.n, amps=collapsed).amps


def dense_work(n):
    """The per-call formula's arrays for n qubits, which a caller allocates
    once and the formula writes with out=: under the C allocator's defaults
    fresh 2^14-amplitude arrays go back to the OS between calls and fault
    in again, about 174 minor faults per forced-branch oracle call."""
    size = 2**n
    index = np.arange(size)
    return SimpleNamespace(
        index=index, source=np.empty_like(index), parity=np.empty(size, dtype=np.uint8),
        sign=np.empty(size, dtype=complex), amps=np.empty(size, dtype=complex),
        applied=np.empty(size, dtype=complex), collapsed=np.empty(size, dtype=complex),
    )


def per_call_pauli_amps(amps, x, z, work):
    """out[j] = i^{|x&z|} (-1)^{|(j^x)&z|} amps[j^x] as first written: an
    index, parity and complex sign over all 2^n entries per call, with its
    own phase table and the sign of the source index j^x, written into
    work's arrays; returns work.applied."""
    source, out = np.bitwise_xor(work.index, x, out=work.source), work.applied
    np.take(amps, source, out=out, mode="wrap")  # in range; mode "raise" buffers out
    if z:
        phase = (1, 1j, -1, -1j)[(x & z).bit_count() & 3]
        parity = np.bitwise_count(np.bitwise_and(source, z, out=source), out=work.parity)
        signs = np.array((phase, -phase), dtype=complex)
        out *= np.take(signs, np.bitwise_and(parity, 1, out=parity), out=work.sign, mode="wrap")
    return out


def per_call_collapse(amps, applied, r, work):
    """The branch rule on a dense product applied = P amps, written out:
    p_plus from the blocked <amps|applied>, +1 when r < p_plus, the
    collapse amps +/- applied, or amps + amps, the other branch, when
    round-off left the drawn one no amplitude, then divided by its norm
    as the float64 view times the reciprocal (README, Conventions);
    returns work.collapsed."""
    p_plus = min(max((1.0 + float(np.real(block_vdot(amps, applied)))) / 2.0, 0.0), 1.0)
    eigenvalue = +1 if r < p_plus else -1
    collapsed = (np.add if eigenvalue == 1 else np.subtract)(amps, applied, out=work.collapsed)
    norm = block_norm(collapsed)
    if norm == 0.0:
        eigenvalue, collapsed = -eigenvalue, np.add(amps, amps, out=collapsed)
        norm = block_norm(collapsed)
    floats = collapsed.view(np.float64)
    floats *= 1.0 / norm
    return eigenvalue, collapsed


def per_call_measure_row(state, x, z, rng, work):
    """Observable measurement on the per-call kernel's product."""
    applied = per_call_pauli_amps(state.amps, x, z, work)
    return per_call_collapse(state.amps, applied, rng.random(), work)


def support_copy(psi):
    """psi kept as the support of its nonzero amplitudes."""
    kets = np.flatnonzero(psi.amps)
    return StateVector._scatter(psi.n, kets, psi.amps[kets])


def random_support(rng, n, size):
    """size distinct random kets of n qubits with random complex
    amplitudes of unequal magnitude, kept as that support."""
    kets = rng.choice(2**n, size=size, replace=False)
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector._scatter(n, kets, values / np.linalg.norm(values))


def random_stabilizer_state(rng, n, measurements):
    """A random basis ket collapsed by random Pauli strings at random
    draws: a stabilizer state on an affine support, the kind of support
    every kernel builds."""
    state = basis_state(BitVector(int(rng.integers(0, 2**n)), n))
    for _ in range(measurements):
        factors = "".join(rng.choice(list("IXYZ"), size=n))
        state = measure_paulis(state, [PauliString(factors)], rng)[1]
    return state


def row_tuples(n, pairs):
    """Rows for one call, at most 6 each: the X-only and the Z-only strings
    among the mask pairs, and a sample of all of them; on 7 and 14 qubits
    also hamming74's CSS check rows, Z rows of H1 and X rows of H2, on the
    last 7 qubits, as distillation measures them on Bob's half."""
    tuples = [
        tuple(pauli_from_masks(n, x, z) for x, z in pairs if not z)[:6],
        tuple(pauli_from_masks(n, x, z) for x, z in pairs if not x)[:6],
        tuple(pauli_from_masks(n, x, z) for x, z in pairs[:: max(1, len(pairs) // 6)])[:6],
    ]
    if n in (7, 14):
        c1 = named_code("hamming74")
        code = css_build(c1, c1.dual())
        tuples += [tuple(pauli_row(row, kind, n, n - 7) for row in matrix.rows)
                   for matrix, kind in ((code.h1, "Z"), (code.h2, "X"))]
    return [rows for rows in tuples if rows]


def pauli_from_masks(n, x, z):
    factors = "".join("IXZY"[(x >> i & 1) + 2 * (z >> i & 1)] for i in range(n - 1, -1, -1))
    pauli = PauliString(factors)
    assert (pauli.x, pauli.z) == (x, z)
    return pauli


def mask_pairs(rng, n):
    """(x, z) pairs whose masks lie in the high half of the index, in the
    low half, or across both: X-only, Z-only and Y-bearing, with even and
    odd |x&z|. Below 4 qubits every pair."""
    if n <= 3:
        return list(itertools.product(range(2**n), repeat=2))
    low = (1 << n // 2) - 1
    pairs = []
    for region in ((1 << n) - 1 ^ low, low, (1 << n) - 1):
        draw = lambda: int(rng.integers(1, 1 << n)) & region or region
        for _ in range(3):
            pairs += [(draw(), 0), (0, draw())]
        for parity in (0, 1, 0, 1, 0, 1):
            x, z = draw(), draw()
            while not x & z or (x & z).bit_count() % 2 != parity:
                x, z = draw(), draw()
            pairs.append((x, z))
    return pairs


def copying_hadamard_all(amps):
    """The fast transform with copied halves and a final complex division."""
    amps = amps.copy()
    h = 1
    while h < amps.size:
        block = amps.reshape(-1, 2, h)
        top, bottom = block[:, 0, :].copy(), block[:, 1, :].copy()
        block[:, 0, :], block[:, 1, :] = top + bottom, top - bottom
        h *= 2
    amps /= np.sqrt(amps.size)
    return amps


def parity_projectors(state, mask):
    """Oracle for a Z-string observable with mask z: its two projectors,
    onto the kets of even |j & z| (eigenvalue +1) and of odd, with
    p_plus a generator sum of |amplitude|^2 over the even kets."""
    odd = np.array([bin(j & mask).count("1") % 2 for j in range(2**state.n)], dtype=bool)
    weights = np.abs(state.amps) ** 2
    p_plus = float(sum(w for w, o in zip(weights, odd) if not o))
    return p_plus, odd


def projected(state, odd, eigenvalue):
    """The state projected onto one parity class, divided by its norm."""
    kept = np.where(odd == (eigenvalue == -1), state.amps, 0.0)
    return kept / np.linalg.norm(kept)


def assert_same_nonzero_bits(got, want):
    """Equal values, and bit-identical float components wherever the
    component is nonzero; only the sign of an exact zero may differ."""
    assert np.array_equal(got, want)
    got, want = got.view(np.float64), want.view(np.float64)
    nonzero = want != 0.0
    assert np.array_equal(got == 0.0, ~nonzero)
    assert np.array_equal(got.view(np.int64)[nonzero], want.view(np.int64)[nonzero])


def dense_measure_all_z(state, rng):
    """measure_all_z before it skipped zero weights: the cumulative sums
    run over all 2^n weights."""
    bits = BitVector(_draw_outcome(rng, np.abs(state.amps) ** 2), state.n)
    return bits, basis_state(bits)


def boundary_draws(weights, every=1):
    """0, the largest draw below 1, and each cumulative total (every
    every-th one) with its two nextafter neighbours, all in [0, 1)."""
    acc = np.add.accumulate(weights)[::every]
    draws = {0.0, float(np.nextafter(1.0, 0.0))}
    for a in acc:
        draws |= {float(a), float(np.nextafter(a, 0.0)), float(np.nextafter(a, 2.0))}
    return sorted(d for d in draws if 0.0 <= d < 1.0)


def loop_css_codeword(code, v, params):
    """css_codeword before the scatter: one += per codeword of C2 into
    zeros, the division, then a copying StateVector."""
    amps = np.zeros(2**code.n, dtype=complex)
    shift = (v + params.x).value
    for w in code.c2.codewords():
        amps[w.value ^ shift] += -1.0 if w.dot(params.z) else 1.0
    amps /= np.sqrt(2**code.c2.k)
    return StateVector(n=code.n, amps=amps).amps


KERNEL_SIZES = (1, 2, 3, 7, 9, 14)


def kernel_states(rng, n):
    """A dense random state and a sparse one, whose exact zeros and
    one-hot amplitudes reach the kernels' zero and unit products."""
    sparse = basis_state(BitVector(int(rng.integers(0, 2**n)), n))
    return random_state(rng, n), apply_gate(sparse, "H", 1)


class TestKernelOracles:
    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_gates_match_moveaxis_kernel_byte_for_byte(self, n):
        rng = np.random.default_rng(100 + n)
        unitaries = [rotation_error(0.3, 1).matrix(), random_error(rng, 1).matrix()]
        for psi in kernel_states(rng, n):
            for qubit in range(1, n + 1):
                for gate in ("X", "Y", "Z", "H"):
                    want = moveaxis_apply_single(psi.amps, n, qubit, GATES[gate])
                    assert apply_gate(psi, gate, qubit).amps.tobytes() == want.tobytes()
                for matrix in unitaries:
                    want = moveaxis_apply_single(psi.amps, n, qubit, matrix)
                    assert apply_matrix(psi, matrix, qubit).amps.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", KERNEL_SIZES[1:])
    def test_cnot_matches_axis_flip_byte_for_byte(self, n):
        rng = np.random.default_rng(150 + n)
        for psi in kernel_states(rng, n):
            for control, target in itertools.permutations(range(1, n + 1), 2):
                want = flip_cnot(psi.amps, n, control, target)
                assert apply_cnot(psi, control, target).amps.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_pauli_strings_match_gate_loop(self, n):
        rng = np.random.default_rng(200 + n)
        strings = ["Y" * n, "X" * n, "Z" * n, ("XYZI" * n)[:n], ("IZYX" * n)[:n]]
        strings += ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(10)]
        for psi in kernel_states(rng, n):
            for factors in strings:
                want = gate_loop_pauli(psi.amps, n, factors)
                got = apply_pauli_string(psi, PauliString(factors)).amps
                assert np.array_equal(got, want), factors

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_observable_measurement_matches_gate_loop(self, n):
        # The old measurement: expectation and collapse from the gate-loop
        # product, one uniform, the same branch rule.
        rng = np.random.default_rng(300 + n)
        psi = random_state(rng, n)
        for _ in range(8):
            factors = "".join(rng.choice(list("IXYZ"), size=n))
            applied = gate_loop_pauli(psi.amps, n, factors)
            r = float(rng.random())
            p_plus = min(max((1.0 + float(np.real(block_vdot(psi.amps, applied)))) / 2.0, 0.0), 1.0)
            sign = 1 if r < p_plus else -1
            want = psi.amps + sign * applied
            want = want / block_norm(want)
            (value,), collapsed = measure_paulis(psi, [PauliString(factors)], ScriptedRng([r]))
            assert value == sign
            assert np.array_equal(collapsed.amps, want)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_collapse_matches_dividing_measurement_bit_for_bit(self, n):
        # A small r forces +1 and a large one -1, unless the state is an
        # eigenstate. Draws of exactly 0 or just below 1 are not used: they
        # can pick a branch that round-off leaves with weight 1e-16 or 0.
        rng = np.random.default_rng(350 + n)
        strings = ["I" * n, "X" * n, "Z" * n, ("XZ" * n)[:n], ("ZIY" * n)[:n]]
        strings += ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(3)]
        outcomes = set()
        for psi in kernel_states(rng, n):
            for factors in strings:
                for r in (1e-6, 1.0 - 1e-6):
                    pauli = PauliString(factors)
                    want_value, want = dividing_measure_row(psi, pauli, ScriptedRng([r]))
                    (value,), collapsed = measure_paulis(psi, [pauli], ScriptedRng([r]))
                    assert value == want_value, (factors, r)
                    assert_same_nonzero_bits(collapsed.amps, want)
                    outcomes.add(value)
        assert outcomes == {1, -1}

    @pytest.mark.parametrize("n", (1, 2, 3, 7, 8, 9, 14))
    def test_pauli_amps_match_per_call_kernel_bit_for_bit(self, n):
        rng, work = np.random.default_rng(360 + n), dense_work(n)
        pairs = mask_pairs(rng, n)
        high, low = (1 << n) - (1 << n // 2), (1 << n // 2) - 1
        y_parities = {(x & z).bit_count() % 2 for x, z in pairs if x & z}
        assert y_parities == ({0, 1} if n > 1 else {1})
        if n > 1:
            for region in (high, low):
                kinds = {(bool(x), bool(z)) for x, z in pairs if not (x | z) & ~region}
                assert {(True, False), (False, True), (True, True)} <= kinds
        for psi in kernel_states(rng, n):
            for state in (psi, support_copy(psi)):
                for x, z in pairs:
                    got = apply_pauli_string(state, pauli_from_masks(n, x, z)).amps
                    assert_same_nonzero_bits(got, per_call_pauli_amps(psi.amps, x, z, work))

    @pytest.mark.parametrize("n", (1, 2, 3, 7, 8, 9, 14))
    def test_pauli_measurement_matches_per_call_kernel_bit_for_bit(self, n):
        rng, work = np.random.default_rng(370 + n), dense_work(n)
        pairs = mask_pairs(rng, n)
        outcomes = set()
        for psi in kernel_states(rng, n):
            for x, z in pairs[:: max(1, len(pairs) // 12)]:
                for r in (1e-6, 1.0 - 1e-6, float(rng.random())):
                    want_value, want = per_call_measure_row(psi, x, z, ScriptedRng([r]), work)
                    pauli = pauli_from_masks(n, x, z)
                    (value,), collapsed = measure_paulis(psi, [pauli], ScriptedRng([r]))
                    assert value == want_value, (x, z, r)
                    assert_same_nonzero_bits(collapsed.amps, want)
                    outcomes.add(value)
        assert outcomes == {1, -1}
        # Rows measured in one call on the dense states: after each row, the
        # eigenvalues and the state are those of the per-call kernel applied
        # row by row.
        outcomes = set()
        for rows in row_tuples(n, pairs):
            for psi in kernel_states(rng, n):
                for draws in ([1e-6] * len(rows), [1.0 - 1e-6] * len(rows), rng.random(len(rows))):
                    want_values, want = [], psi
                    for count, pauli in enumerate(rows, 1):
                        x, z, rng_row = pauli.x, pauli.z, ScriptedRng(draws[count - 1 : count])
                        value, amps = per_call_measure_row(want, x, z, rng_row, work)
                        want_values.append(value)
                        want = StateVector(n, amps)
                        values, collapsed = measure_paulis(psi, rows[:count], ScriptedRng(draws))
                        assert values == want_values, ([str(p) for p in rows[:count]], draws)
                        assert_same_nonzero_bits(collapsed.amps, want.amps)
                    outcomes.update(want_values)
        assert outcomes == {1, -1}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_support_image_is_sorted_and_matches_per_call_kernel(self, n):
        # x flips only high index bits (index ^ x is a few long sorted
        # runs), only low ones (many short runs) or both; the reordered
        # image is strictly increasing, on the kets index ^ x, and every
        # value is the per-call formula's, on supports of one ket up to
        # all 2^n, with unequal magnitudes.
        rng, work = np.random.default_rng(395 + n), dense_work(n)
        pairs = mask_pairs(rng, n)
        low = (1 << n // 2) - 1
        regions = {(bool(x & ~low), bool(x & low)) for x, _ in pairs if x}
        assert regions == ({(True, False)} if n == 1 else {(True, False), (False, True), (True, True)})
        assert any(x & z for x, z in pairs)  # Y factors
        for size in sorted({1, 2, max(1, 2**n // 3), 2**n}):
            state = random_support(rng, n, size)
            for x, z in pairs:
                got = apply_pauli_string(state, pauli_from_masks(n, x, z))
                assert np.array_equal(got._index, np.sort(state._index ^ x)), (x, z)
                assert np.all(got._index[1:] > got._index[:-1])
                assert_same_nonzero_bits(got.amps, per_call_pauli_amps(state.amps, x, z, work))

    @pytest.mark.parametrize("n", (1, 2, 7, 9, 14))
    def test_stabilizer_collapse_matches_per_call_kernel(self, n):
        # Random stabilizer states, from a basis ket up to 2^6 kets,
        # collapsed on their support onto both eigenvalues by strings whose
        # image equals the support or misses it, against the per-call
        # formula and branch rule on their dense amplitudes.
        rng, work = np.random.default_rng(450 + n), dense_work(n)
        pairs = mask_pairs(rng, n)
        pairs = pairs[:: max(1, len(pairs) // 12)]
        images = set()
        for measurements in range(7):
            state = random_stabilizer_state(rng, n, measurements)
            assert state._index is not None
            for x, z in pairs:
                forced_branches_match_dense(state, pauli_from_masks(n, x, z), work)
                images.add(np.array_equal(np.sort(state._index ^ x), state._index))
        assert images == {True, False}

    def test_pauli_kernels_leave_their_input_unchanged(self):
        # Dense, on a full support, on one ket and on a stabilizer support:
        # applying and measuring every 3-qubit string writes nothing of the
        # state's arrays, and the identity returns the state itself, or
        # measures +1 and keeps the state's support.
        rng = np.random.default_rng(390)
        psi = random_state(rng, 3)
        states = (psi, support_copy(psi), basis_state(BV("101")), random_stabilizer_state(rng, 3, 3))
        for state in states:
            arrays = (state.amps, state._values) + (() if state._index is None else (state._index,))
            before = [array.tobytes() for array in arrays]
            for x, z in itertools.product(range(8), repeat=2):
                pauli = pauli_from_masks(3, x, z)
                applied = apply_pauli_string(state, pauli)
                assert (applied is state) == (not x | z)
                for draw in (0.0, LAST_DRAW):
                    (value,), collapsed = measure_paulis(state, [pauli], ScriptedRng([draw]))
                    if not x | z:
                        assert value == 1
                        assert np.array_equal(collapsed._index, state._index)
            assert [array.tobytes() for array in arrays] == before

    def test_sparse_draw_matches_dense_accumulate_at_every_boundary(self):
        rng = np.random.default_rng(430)
        underflow = np.zeros(8, dtype=complex)
        # |1e-160|^2 is a subnormal weight, the first in the sums; |1e-170|^2 is 0.0
        underflow[[1, 2, 5, 6]] = 1e-160, 1e-170, 0.6, 0.8j
        states = [random_state(rng, n) for n in (3, 7, 9)]
        states += [kernel_states(rng, n)[1] for n in (3, 9, 14)]  # two kets each
        states.append(StateVector(3, underflow))
        short = next(psi for psi in (random_state(rng, 5) for _ in range(200))
                     if np.add.accumulate(np.abs(psi.amps) ** 2)[-1] < 1.0)
        states += [short, random_state(rng, 14)]
        assert np.count_nonzero(underflow) > np.count_nonzero(np.abs(underflow) ** 2)
        fallbacks = 0
        for psi in states:
            weights = np.abs(psi.amps) ** 2
            total = np.add.accumulate(weights)[-1]
            for r in boundary_draws(weights, every=97 if psi.n == 14 else 1):
                want_bits, want = dense_measure_all_z(psi, ScriptedRng([r]))
                bits, collapsed = measure_all_z(psi, ScriptedRng([r]))
                assert bits == want_bits, (psi.n, r)
                assert collapsed.amps.tobytes() == want.amps.tobytes()
                fallbacks += r >= total
        assert fallbacks > 0  # draws past a round-off-short total fall back

    @pytest.mark.parametrize("name", ("parity4", "hamming74", "h15"))
    def test_scattered_codeword_matches_loop_bit_for_bit(self, name):
        c1 = hamming15() if name == "h15" else named_code(name)
        code = css_build(c1, c1.dual())
        rng = np.random.default_rng(440)
        params = [CssParams.zero(code.n), CssParams(BitVector.zeros(code.n), c1.dual().G.rows[0])]
        params += [CssParams(*(BitVector(int(rng.integers(0, 2**code.n)), code.n)
                               for _ in range(2))) for _ in range(2)]
        for i, v in enumerate(c1.codewords()):
            # [15, 11]'s 2,048 codewords take the parameter sets in turn.
            for p in [params[i % len(params)]] if name == "h15" else params:
                got, want = css_codeword(code, v, p).amps, loop_css_codeword(code, v, p)
                assert np.array_equal(got, want), (str(v), p)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_shared_epr_state_is_read_only_and_unchanged_by_distill(self):
        joint = create_epr(7)
        before = joint.amps.tobytes()
        support_before = joint._index.tobytes(), joint._values.tobytes()
        assert not joint.amps.flags.writeable
        with pytest.raises(ValueError):
            joint.amps[0] = 0.0
        size = 2**7
        fresh = np.zeros(size * size, dtype=complex)
        fresh[:: size + 1] = 1.0 / np.sqrt(size)
        assert before == fresh.tobytes()
        with redirect_stdout(io.StringIO()):
            assert main(["distill", "--code", "hamming74", "--e1", "0010000", "--seed", "3"]) == 0
            assert main(["distill", "--code", "hamming74", "--seed", "4"]) == 0
        assert create_epr(7) is joint
        assert joint.amps.tobytes() == before
        assert (joint._index.tobytes(), joint._values.tobytes()) == support_before

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_hadamard_all_matches_dividing_transform_bit_for_bit(self, n):
        for psi in kernel_states(np.random.default_rng(380 + n), n):
            assert_same_nonzero_bits(hadamard_all(psi).amps, copying_hadamard_all(psi.amps))

    def test_draw_outcome_matches_loop_on_scripted_draws(self):
        rng = np.random.default_rng(400)
        rows = [np.abs(random_state(rng, n).amps) ** 2 for n in (1, 2, 3, 7, 9)]
        rows += [np.abs(kernel_states(rng, 5)[1].amps) ** 2]
        rows += [
            np.array(p) for p in (
                [1.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.0, 0.75, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0], [0.3, 0.3, 0.3999999999, 0.0], [0.1] * 9 + [0.0] * 3,
            )
        ]
        rows += list(_ROWS)
        fallbacks = 0
        for row in rows:
            acc = np.add.accumulate(row)
            total = float(acc[-1])
            draws = {0.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(total, 0.0))}
            draws |= {float(a) for a in acc} | {float(np.nextafter(a, 0.0)) for a in acc}
            draws |= {float(u) for u in rng.random(20)}
            for r in sorted(d for d in draws if 0.0 <= d < 1.0):
                want = loop_draw_outcome(ScriptedRng([r]), list(row))
                assert _draw_outcome(ScriptedRng([r]), row) == want, (row, r)
                assert _draw_outcome(ScriptedRng([r]), list(row)) == want, (row, r)
                fallbacks += r >= total
        assert fallbacks > 0  # some draws land past a round-off-short total

    @pytest.mark.parametrize("basis", ("computational", "hadamard"))
    @pytest.mark.parametrize("n", (1, 3, 9, 14))
    def test_css_row_observables_match_parity_projectors(self, n, basis):
        # CSS syndromes measure Z-strings of H1 rows and X-strings of H2
        # rows; an X-string on psi is the Z-string on hadamard_all(psi).
        rng = np.random.default_rng(410 + n)
        kind, frame = ("Z", lambda state: state) if basis == "computational" else ("X", hadamard_all)
        masks = sorted({1, 2**n - 1} | {int(m) for m in rng.integers(1, 2**n, size=4)})
        outcomes = set()
        for psi in kernel_states(rng, n):
            work = frame(psi)
            for mask in masks:
                pauli = pauli_row(BitVector(mask, n), kind)
                p_plus, odd = parity_projectors(work, mask)
                # Draws 1e-9 either side of the oracle's p_plus pin the
                # kernel's p_plus to within 1e-9.
                draws = (p_plus - 1e-9, p_plus + 1e-9, float(rng.random()))
                for r in (d for d in draws if 0.0 <= d < 1.0):
                    (value,), collapsed = measure_paulis(psi, [pauli], ScriptedRng([r]))
                    assert value == (1 if r < p_plus else -1), (mask, r)
                    want = projected(work, odd, value)
                    np.testing.assert_allclose(frame(collapsed).amps, want, rtol=0, atol=1e-12)
                    outcomes.add(value)
        assert outcomes == {1, -1}

    @pytest.mark.parametrize("n", (1, 3, 7, 14))
    def test_basis_state_collapse_matches_dense_kernel(self, n):
        # Every X or Y string maps a basis ket off itself: p_plus is 1/2
        # and the collapse is the ket and its image, merged.
        rng, work = np.random.default_rng(460 + n), dense_work(n)
        ket = basis_state(BitVector(int(rng.integers(0, 2**n)), n))
        strings = ["X" * n, "Y" * n, ("XIYZ" * n)[:n], ("ZY" * n)[:n]]
        strings += ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6)]
        for factors in strings:
            if factors.strip("IZ"):
                assert forced_branches_match_dense(ket, PauliString(factors), work) == [1, -1], factors

    def test_unequal_magnitude_collapse_matches_dense_kernel(self):
        # An affine two-ket support {000, 111} that is no stabilizer state:
        # each string maps it off itself but XXX and YXY, which map it onto
        # itself with p_plus 0.98 and 0.02.
        pair, work = StateVector._scatter(3, [0b000, 0b111], [0.6, 0.8]), dense_work(3)
        for factors in ("XII", "IXI", "IIX", "XXI", "XIX", "IXX", "XYZ", "YYI", "XXX", "YXY"):
            assert forced_branches_match_dense(pair, PauliString(factors), work) == [1, -1], factors

    def test_support_that_is_not_affine_raises(self):
        # {00, 01, 10} ^ 01 = {01, 00, 11} meets the support in two kets:
        # no stabilizer state has such a support.
        skew = StateVector._scatter(2, [0, 1, 2], np.full(3, 1 / np.sqrt(3)))
        for draw in (0.0, LAST_DRAW):
            with pytest.raises(AssertionError, match="affine"):
                measure_paulis(skew, [PauliString("IX")], ScriptedRng([draw]))

    def test_row_call_draws_once_per_row(self):
        # One uniform per row, dense or on a support: rows whose image equals
        # the support and whose outcome is certain (a codeword's check rows),
        # rows whose image misses it (X rows on a basis ket, p_plus 1/2), and
        # rows that leave the drawn branch no amplitude (X on |->, whose
        # p_plus round-off leaves at 1.1e-16, so draw 0 takes the zero-norm
        # fallback). Each row's eigenvalue and the state are those of one
        # call per row.
        c1 = named_code("hamming74")
        code = css_build(c1, c1.dual())
        z_rows = tuple(pauli_row(row, "Z", 7) for row in code.h1.rows)
        x_rows = tuple(pauli_row(row, "X", 7) for row in code.h2.rows)
        minus = StateVector(1, np.array([1.0, -1.0]) / np.linalg.norm([1.0, -1.0]))
        cases = (  # (state, rows, {draw: eigenvalues})
            (css_codeword(code, BV("1111111")), z_rows + x_rows,
             {0.0: [1] * 6, LAST_DRAW: [1] * 6}),
            (basis_state(BV("0000000")), x_rows + z_rows,
             {0.0: [1] * 6, LAST_DRAW: [-1] * 3 + [1] * 3}),
            (minus, tuple(map(PauliString, "XXZX")), {0.0: [-1, -1, 1, 1]}),
        )
        for state, rows, expected in cases:
            for form in (StateVector(state.n, state.amps), support_copy(state)):
                for draw in (0.0, LAST_DRAW, 0.5):
                    rng = ScriptedRng([draw] * len(rows))
                    values, got = measure_paulis(form, rows, rng)
                    assert rng.used == len(rows), ([str(p) for p in rows], draw)
                    want_rng, want, want_values = ScriptedRng([draw] * len(rows)), form, []
                    for pauli in rows:
                        (value,), want = measure_paulis(want, [pauli], want_rng)
                        want_values.append(value)
                    assert values == want_values == expected.get(draw, values), draw
                    assert np.array_equal(got._index, want._index)
                    assert got._values.tobytes() == want._values.tobytes()

    def test_short_strings_raise_on_every_call(self):
        # "ZZ" and "XX" have the masks of "IZZ" and "IXX": on a 3-qubit
        # state, dense or on a support, only the length check keeps them out,
        # also after the full strings have been measured and applied.
        psi = random_state(np.random.default_rng(420), 3)
        for short, full in ((PauliString("ZZ"), PauliString("IZZ")),
                            (PauliString("XX"), PauliString("IXX"))):
            assert (short.x, short.z) == (full.x, full.z)
            for state in (psi, support_copy(psi), basis_state(BV("101"))):
                measure_paulis(state, [full], ScriptedRng([0.5]))
                apply_pauli_string(state, full)
                for _ in range(2):
                    with pytest.raises(ValueError, match="length 2 != n=3"):
                        measure_paulis(state, [short], ScriptedRng([0.5]))
                    with pytest.raises(ValueError, match="length 2 != n=3"):
                        apply_pauli_string(state, short)

    def test_draw_outcome_without_mass_raises(self):
        for row in ([0.0], [0.0, 0.0, 0.0], []):
            with pytest.raises(ValueError):
                loop_draw_outcome(ScriptedRng([0.5]), row)
            with pytest.raises(ValueError):
                _draw_outcome(ScriptedRng([0.5]), row)


def scalar_bytes(value):
    return np.asarray(value).tobytes()


# One fixed script over 13-16 qubits: dense random states normalized by
# numpy's own pairwise sum (no BLAS call), Pauli measurements, fidelity, a
# Hadamard transform and a measurement of every qubit at 14 qubits, and
# `distill --code hamming74`. It prints a sha256 of the amplitudes and
# outcomes and one of the stdout.
THREAD_SCRIPT = """
import hashlib, io, json
from contextlib import redirect_stdout
import numpy as np
from qkdforge import qsim
from qkdforge.cli import main

digest = hashlib.sha256()
rng = np.random.default_rng(11)
for n in (13, 14, 15, 16):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.sqrt(np.sum(amps.real**2 + amps.imag**2))
    start = psi = qsim.StateVector(n, amps)
    for _ in range(4):
        factors = "".join(rng.choice(list("IXYZ"), size=n))
        (value,), psi = qsim.measure_paulis(psi, [qsim.PauliString(factors)], rng)
        digest.update(bytes([value + 1]) + psi.amps.tobytes())
    digest.update(np.float64(qsim.fidelity(start, psi)).tobytes())
    if n == 14:
        bits, psi = qsim.measure_all_z(qsim.hadamard_all(psi), rng)
        digest.update(str(bits).encode() + psi.amps.tobytes())
out = io.StringIO()
with redirect_stdout(out):
    main(["distill", "--code", "hamming74", "--seed", "5"])
report = json.loads(out.getvalue())
del report["elapsedMs"]
print(digest.hexdigest(), hashlib.sha256(json.dumps(report).encode()).hexdigest())
"""


def run_with_blas_threads(threads):
    src = str(Path(qkdforge.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = src + os.pathsep + path if path else src
    done = subprocess.run(
        [sys.executable, "-c", THREAD_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestBlockedReductions:
    @pytest.mark.parametrize("size", (1, 2, 3, 100, 2**13 - 1, 2**13))
    def test_one_block_is_numpys_call(self, size):
        rng = np.random.default_rng(500 + size)
        a, b = (rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(2))
        assert scalar_bytes(_vdot(a, b)) == scalar_bytes(np.vdot(a, b))
        assert scalar_bytes(_vdot(a, a)) == scalar_bytes(np.vdot(a, a))
        assert scalar_bytes(_norm(a)) == scalar_bytes(np.linalg.norm(a))

    @pytest.mark.parametrize("n", (14, 15, 16))
    def test_larger_states_sum_blocks_in_index_order(self, n):
        rng = np.random.default_rng(510 + n)
        a, b = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n) for _ in range(2))
        assert scalar_bytes(_vdot(a, b)) == scalar_bytes(block_vdot(a, b))
        assert scalar_bytes(_vdot(a, a)) == scalar_bytes(block_vdot(a, a))
        assert scalar_bytes(_norm(a)) == scalar_bytes(block_norm(a))

    def test_results_do_not_depend_on_the_blas_thread_count(self):
        digests = run_with_blas_threads(1), run_with_blas_threads(2)
        assert len(digests[0].split()) == 2
        assert digests[0] == digests[1]
