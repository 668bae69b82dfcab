"""Entanglement distillation over maximally-entangled pairs via one-sided
CSS syndrome measurement.

A session holds the joint state of n pairs (Alice owns qubits 1..n, Bob
owns n+1..2n). Alice measures the CSS check observables on her half,
which fixes the shift/phase parameters she announces; Bob measures the
same observables on his half, removes the announced shifts from his
syndromes, corrects his qubits, and both read out keys that agree
whenever the injected errors stay within the code's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codes import key_from_coset
from .css import CssCode, measure_check_rows
from .gf2 import BitVector, mat_apply, solve_particular
from .qsim import StateVector, apply_pauli_string, measure_all_z, pauli_row

MAX_JOINT_QUBITS = 16


@dataclass(eq=False)
class EprSession:
    """n entangled pairs plus the CSS code used to distill them."""

    n: int
    joint: StateVector
    code: Optional[CssCode] = None
    x: Optional[BitVector] = None
    z: Optional[BitVector] = None


def create_epr(n: int, code: Optional[CssCode] = None) -> EprSession:
    """Prepare n perfect pairs: (1/sqrt(2^n)) sum_j |j>_A |j>_B."""
    if 2 * n > MAX_JOINT_QUBITS:
        raise ValueError(f"2n = {2 * n} exceeds the joint-state limit {MAX_JOINT_QUBITS}")
    if code is not None and code.n != n:
        raise ValueError(f"code length {code.n} does not match n={n}")
    size = 2**n
    amps = np.zeros(size * size, dtype=complex)
    for j in range(size):
        amps[j * size + j] = 1.0
    amps /= np.sqrt(size)
    return EprSession(n=n, joint=StateVector(n=2 * n, amps=amps), code=code)


def inject_bob_errors(session: EprSession, e1: BitVector, e2: BitVector) -> EprSession:
    """Apply X to Bob's qubit i wherever e1_i = 1 and Z wherever e2_i = 1."""
    n = session.n
    if len(e1) != n or len(e2) != n:
        raise ValueError(f"error vectors must have length n={n}")
    joint = apply_pauli_string(session.joint, pauli_row(e1, "X", 2 * n, n))
    joint = apply_pauli_string(joint, pauli_row(e2, "Z", 2 * n, n))
    return EprSession(n=n, joint=joint, code=session.code, x=session.x, z=session.z)


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
    session: EprSession, rng: np.random.Generator
) -> tuple[BitVector, BitVector, BitVector, BitVector]:
    """Alice's half of the round: measure the Z-strings of H1 and the
    X-strings of H2 on qubits 1..n, collapse the joint state, and solve
    for the announced parameters.

    Returns (x, z, bit_syndrome, phase_syndrome); the session's joint
    state and announced parameters are updated in place.
    """
    code = session.code
    if code is None:
        raise ValueError("session has no CSS code attached")
    joint = session.joint
    alice_sx, joint = measure_check_rows(code.h1, "Z", joint, rng)
    alice_sz, joint = measure_check_rows(code.h2, "X", joint, rng)
    x = solve_particular(code.h1, alice_sx)
    z = solve_particular(code.h2, alice_sz)
    if x is None or z is None:
        raise AssertionError("announced-parameter systems must be solvable")
    session.joint = joint
    session.x, session.z = x, z
    return x, z, alice_sx, alice_sz


def run_distillation(
    session: EprSession, rng: np.random.Generator
) -> tuple[BitVector, BitVector, DistillationReport]:
    """One full distillation round.

    Alice measures the Z-strings of H1 and X-strings of H2 on her half
    and solves for the parameters (x, z) she announces. Bob measures the
    same observables on his half, subtracts the announced shifts, looks
    up his error patterns, and applies X/Z corrections. A final
    computational measurement of all qubits yields both parties' strings;
    each key is the coset label of (measured string - x).
    """
    code = session.code
    if code is None:
        raise ValueError("session has no CSS code attached")
    n = session.n

    x, z, alice_sx, alice_sz = measure_alice_parameters(session, rng)
    joint = session.joint

    bob_sx, joint = measure_check_rows(code.h1, "Z", joint, rng, offset=n)
    bob_sz, joint = measure_check_rows(code.h2, "X", joint, rng, offset=n)

    bit_key = bob_sx + mat_apply(code.h1, x, side="right")
    phase_key = bob_sz + mat_apply(code.h2, z, side="right")
    if bit_key not in code.bit_table or phase_key not in code.phase_table:
        raise ValueError("uncorrectable syndrome: errors exceed the code capacity")
    e1 = code.bit_table[bit_key]
    e2 = code.phase_table[phase_key]
    joint = apply_pauli_string(joint, pauli_row(e1, "X", 2 * n, n))
    joint = apply_pauli_string(joint, pauli_row(e2, "Z", 2 * n, n))

    bits, joint = measure_all_z(joint, rng)
    session.joint = joint
    alice_bits = bits[:n]
    bob_bits = bits[n:]

    alice_key = key_from_coset(code.quotient, alice_bits + x)
    bob_key = key_from_coset(code.quotient, bob_bits + x)
    report = DistillationReport(
        x=x,
        z=z,
        alice_bit_syndrome=alice_sx,
        alice_phase_syndrome=alice_sz,
        bob_bit_syndrome=bob_sx,
        bob_phase_syndrome=bob_sz,
        bit_correction=e1,
        phase_correction=e2,
        alice_bits=alice_bits,
        bob_bits=bob_bits,
    )
    return alice_key, bob_key, report
