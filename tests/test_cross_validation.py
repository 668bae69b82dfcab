"""Dense-matrix oracles for the simulator and the BB84 transport.

Every structured operation (axis-based gate application, the flip-based
CNOT, Pauli strings, the fast Hadamard transform, observable measurement)
is checked here against explicit operator matrices built with kron
products, on random states. The closed-form batched BB84 transport is
checked against the per-qubit state-vector transport it replaced, draw
for draw. Slow and memory-hungry by design; sizes stay small.
"""

import itertools

import numpy as np
import pytest

from qkdforge.bb84 import (
    BASIS_X,
    BASIS_Z,
    ChannelModel,
    EveStrategy,
    _draw_outcomes,
    _outcome_table,
    _transport,
    transmit_qubit,
)
from qkdforge.codes import named_code
from qkdforge.css import css_build, css_codeword, pauli_row
from qkdforge.gf2 import BitVector
from qkdforge.qec3 import shor_correct, shor_encode
from qkdforge.qsim import (
    GATES,
    PauliString,
    StateVector,
    apply_cnot,
    apply_gate,
    apply_pauli_string,
    basis_state,
    fidelity,
    hadamard_all,
    measure_all_z,
    measure_pauli_observable,
)
from qkdforge.qsim import _draw_outcome

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
                value, _ = measure_pauli_observable(psi, PauliString(factors), rng)
                plus += value == 1
            sigma = np.sqrt(trials * max(p_plus * (1 - p_plus), 1e-4))
            assert abs(plus - trials * p_plus) <= 3 * sigma

    def test_collapse_matches_projector(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 3)
        operator = kron_chain([PAULI[f] for f in "ZXZ"])
        value, collapsed = measure_pauli_observable(psi, PauliString("ZXZ"), rng)
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
# neighbours: 0, each cumulative sum of a table row (where r < acc flips),
# and the largest double below 1, which lies past every row whose
# round-off-short total sends the draw to the fallback branch.
_ROWS = _outcome_table().reshape(-1, 2)
EDGE_DRAWS = sorted(
    {0.0, float(np.nextafter(1.0, 0.0))}
    | {float(acc) for acc in np.cumsum(_ROWS, axis=1).ravel() if acc < 1.0}
)


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
    def test_table_matches_dense_measurement(self):
        # The table is the dense path's own |amplitude|^2, entry for entry.
        table = _outcome_table()
        for value, basis, x_flip, z_flip, measured in itertools.product((0, 1), repeat=5):
            state = dense_prepare(value, basis)
            if x_flip:
                state = apply_gate(state, "X", 1)
            if z_flip:
                state = apply_gate(state, "Z", 1)
            if measured == BASIS_X:
                state = apply_gate(state, "H", 1)
            expected = np.abs(state.amps) ** 2
            assert np.array_equal(table[value, basis, x_flip, z_flip, measured], expected)

    def test_outcome_rule_matches_draw_outcome_branch_for_branch(self):
        fallbacks = 0
        for row in _ROWS:
            for r in EDGE_DRAWS:
                expected = _draw_outcome(ScriptedRng([r]), list(row))
                assert _draw_outcomes(np.array([r]), row[None, :])[0] == expected
                fallbacks += r >= row[0] + row[1]
        assert fallbacks > 0  # some edge draw lands in the round-off fallback

    @pytest.mark.parametrize("eve", list(EVES))
    def test_batched_equals_dense_on_seeded_draws(self, eve):
        for seed, channel in itertools.product(range(4), CHANNELS):
            inputs = np.random.default_rng([seed, 1])
            d, b = inputs.integers(0, 2, size=(2, 60))
            batched_rng = np.random.default_rng(seed)
            dense_rng = np.random.default_rng(seed)
            batched = _transport(d, b, channel, EVES[eve], batched_rng)
            dense = dense_transport(d, b, channel, EVES[eve], dense_rng)
            for got, want in zip(batched, dense):
                assert np.array_equal(got, want), (seed, channel)
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
    def test_transmit_qubit_equals_dense(self, eve):
        for channel in CHANNELS:
            rng, dense_rng = np.random.default_rng(9), np.random.default_rng(9)
            for bit, basis in itertools.product((0, 1), repeat=2):
                for _ in range(5):
                    got = transmit_qubit(bit, basis, channel, EVES[eve], rng)
                    want = dense_transmit_qubit(bit, basis, channel, EVES[eve], dense_rng)
                    assert got == want
                    assert [type(v) for v in got] == [int, int, bool]
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
            transmit_qubit(1, BASIS_X, channel, EVES[eve], single)
            assert single.uniforms == k
