"""Entanglement distillation over maximally-entangled pairs via one-sided
CSS syndrome measurement.

Each step maps the joint state of n pairs (Alice owns qubits 1..n, Bob
owns n+1..2n) to a new one: create_epr prepares it, inject_bob_errors
corrupts Bob's half, Alice measures the CSS check observables on her
half, which fixes the shift/phase parameters she announces, and Bob
measures the same observables on his half, removes the announced shifts
from his syndromes and corrects his qubits. Both read out keys that
agree whenever the injected errors stay within the code's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .codes import key_from_coset
from .css import CssCode, CssParams, css_bit_syndrome, css_correct, css_phase_syndrome
from .gf2 import BitVector, solve_particular
from .qsim import StateVector, _check_size, apply_pauli_string, measure_all_z, pauli_row


@cache
def _epr_state(n: int) -> StateVector:
    """The n-pair state, built once per n: read-only, so rounds share it."""
    size = 2**n
    return StateVector._scatter(2 * n, np.arange(size) * (size + 1), 1.0 / np.sqrt(size))


def create_epr(n: int) -> StateVector:
    """Prepare n perfect pairs: (1/sqrt(2^n)) sum_j |j>_A |j>_B."""
    _check_size(2 * n, 2**n)
    return _epr_state(n)


def inject_bob_errors(joint: StateVector, e1: BitVector, e2: BitVector) -> StateVector:
    """Apply X to Bob's qubit i wherever e1_i = 1 and Z wherever e2_i = 1."""
    n = joint.n // 2
    if len(e1) != n or len(e2) != n:
        raise ValueError(f"error vectors must have length n={n}")
    joint = apply_pauli_string(joint, pauli_row(e1, "X", 2 * n, n))
    return apply_pauli_string(joint, pauli_row(e2, "Z", 2 * n, n))


@dataclass(eq=False)
class DistillationReport:
    x: BitVector
    z: BitVector
    alice_bit_syndrome: BitVector
    alice_phase_syndrome: BitVector
    bob_bit_syndrome: BitVector
    bob_phase_syndrome: BitVector
    bit_correction: BitVector
    phase_correction: BitVector
    alice_bits: BitVector
    bob_bits: BitVector


def measure_alice_parameters(
    code: CssCode, joint: StateVector, rng: np.random.Generator
) -> tuple[BitVector, BitVector, BitVector, BitVector, StateVector]:
    """Alice's half of the round: measure the Z-strings of H1 and the
    X-strings of H2 on qubits 1..n, collapse the joint state, and solve
    for the announced parameters.

    Returns (x, z, bit_syndrome, phase_syndrome, collapsed joint state).
    A code whose length is not half the joint state's is refused before
    any draw.
    """
    if joint.n != 2 * code.n:
        raise ValueError(f"code length {code.n} does not match n={joint.n // 2}")
    alice_sx, joint = css_bit_syndrome(code, joint, rng)
    alice_sz, joint = css_phase_syndrome(code, joint, rng)
    x = solve_particular(code.h1, alice_sx)
    z = solve_particular(code.h2, alice_sz)
    if x is None or z is None:
        raise AssertionError("announced-parameter systems must be solvable")
    return x, z, alice_sx, alice_sz, joint


def run_distillation(
    code: CssCode, joint: StateVector, rng: np.random.Generator
) -> tuple[BitVector, BitVector, DistillationReport]:
    """One full distillation round.

    Alice measures the Z-strings of H1 and X-strings of H2 on her half
    and solves for the parameters (x, z) she announces. Bob runs
    css_correct with those parameters on his half, qubits n+1..2n, and a
    syndrome it reports uncorrectable raises ValueError. A final
    computational measurement of all qubits yields both parties' strings;
    each key is the coset label of (measured string - x).
    """
    x, z, alice_sx, alice_sz, joint = measure_alice_parameters(code, joint, rng)
    n = code.n

    bob = css_correct(code, joint, CssParams(x, z), rng, offset=n)
    if bob.status != "ok":
        raise ValueError("uncorrectable syndrome: errors exceed the code capacity")

    bits, _ = measure_all_z(bob.state, rng)
    alice_bits = bits[:n]
    bob_bits = bits[n:]

    alice_key = key_from_coset(code.quotient, alice_bits + x)
    bob_key = key_from_coset(code.quotient, bob_bits + x)
    report = DistillationReport(
        x=x,
        z=z,
        alice_bit_syndrome=alice_sx,
        alice_phase_syndrome=alice_sz,
        bob_bit_syndrome=bob.bit_syndrome,
        bob_phase_syndrome=bob.phase_syndrome,
        bit_correction=bob.x_correction,
        phase_correction=bob.z_correction,
        alice_bits=alice_bits,
        bob_bits=bob_bits,
    )
    return alice_key, bob_key, report
