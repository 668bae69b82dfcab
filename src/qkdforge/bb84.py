"""Prepare-and-measure key distribution with closed-form batched transport.

One runner, run_session, serves both protocol modes. They share
transmission, sifting and the check-bit estimate, and differ only in the
classical tail:

- standard: reconciliation is a pluggable hook (null by default) and
  privacy amplification is reported as a target key length with the
  exponential information bound.
- shor_preskill: a nested code pair does the work classically. Alice
  draws a random codeword u of C1, announces x - u over the classical
  channel, Bob shifts his block to u + e1 and decodes with C1's syndrome
  table, and both sides map to the key through the coset label of u.

Every random decision flows through one seeded generator in a documented
order (raw bits, basis bits, per-qubit transport draws, codeword draw in
shor_preskill mode, subset selections), so a (config, seed) pair pins the
whole transcript.

Every qubit on the wire is one of the four BB84 states, and the
eavesdropper's measure-and-resend and the X/Z channel map that set onto
itself up to a phase. Transport is therefore a lookup in a small table of
measurement outcome distributions, built once from the dense simulator,
plus a comparison of uniforms: no state vector is made per qubit.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .codes import (
    CosetQuotient,
    LinearCode,
    SyndromeTable,
    build_syndrome_table,
    check_nested,
    decode,
    key_from_coset,
    quotient,
)
from .gf2 import BitVector
from .qsim import StateVector, apply_gate, basis_state

BASIS_Z = 0
BASIS_X = 1

# Largest block size n a session accepts, and the largest raw block. The
# transport draws raw_length x 6 uniforms in one array of 8-byte floats,
# so a raw block of MAX_RAW_LENGTH qubits holds 24 MB of draws.
MAX_N = 100_000
MAX_RAW_LENGTH = 5 * MAX_N


@dataclass(frozen=True)
class ChannelModel:
    """Independent per-qubit X error with probability px and Z error with
    probability pz."""

    px: float = 0.0
    pz: float = 0.0

    def __post_init__(self) -> None:
        for name, p in (("px", self.px), ("pz", self.pz)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


@dataclass(frozen=True)
class EveStrategy:
    kind: str = "none"  # "none" | "intercept_resend"
    basis_policy: str = "uniform_random"  # "uniform_random" | "always_Z" | "always_X"

    def __post_init__(self) -> None:
        if self.kind not in ("none", "intercept_resend"):
            raise ValueError(f"unknown eavesdropper kind {self.kind!r}")
        if self.basis_policy not in ("uniform_random", "always_Z", "always_X"):
            raise ValueError(f"unknown basis policy {self.basis_policy!r}")


# Stand-in for the interactive reconciliation exchange: receives both
# blocks, returns Bob's corrected block.
Reconciler = Callable[[BitVector, BitVector], BitVector]


@dataclass
class SessionConfig:
    n: int
    delta: float = 0.25
    t_abort: Optional[int] = None  # default: tolerate up to n check errors
    seed: int = 0
    mode: str = "standard"  # "standard" | "shor_preskill"
    channel: ChannelModel = field(default_factory=ChannelModel)
    eve: EveStrategy = field(default_factory=EveStrategy)
    codes: Optional[tuple[LinearCode, LinearCode]] = None
    reconciler: Optional[Reconciler] = None
    shed_bits: int = 0  # extra bits sacrificed in the amplification report

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be between 1 and {MAX_N}, got {self.n}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        if self.raw_length > MAX_RAW_LENGTH:
            raise ValueError(
                f"raw block of {self.raw_length} qubits exceeds {MAX_RAW_LENGTH}; lower n or delta"
            )
        if self.mode not in ("standard", "shor_preskill"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.t_abort is None:
            self.t_abort = self.n
        if not 0 <= self.t_abort <= self.n:
            raise ValueError("t_abort must be between 0 and n")
        if self.mode == "shor_preskill":
            if self.codes is None:
                raise ValueError("shor_preskill mode needs a (C1, C2) code pair")
            if self.codes[0].n != self.n:
                raise ValueError(
                    f"block size n={self.n} must equal the code length {self.codes[0].n}"
                )
            check_nested(*self.codes)

    @property
    def raw_length(self) -> int:
        return math.ceil((4 + self.delta) * self.n)


@dataclass
class SessionTranscript:
    """Complete record of one protocol run."""

    mode: str
    seed: int
    n: int
    d: BitVector
    b: BitVector
    bob_bases: BitVector
    bob_bits: BitVector
    eve_learned: tuple[bool, ...]
    sifted: tuple[int, ...]
    selected: Optional[tuple[int, ...]] = None
    check_idx: Optional[tuple[int, ...]] = None
    key_idx: Optional[tuple[int, ...]] = None
    mismatches: Optional[int] = None
    aborted: bool = False
    abort_reason: Optional[str] = None
    alice_block: Optional[BitVector] = None
    bob_block: Optional[BitVector] = None
    reconciled_block: Optional[BitVector] = None
    u: Optional[BitVector] = None
    x_minus_u: Optional[BitVector] = None
    u_hat: Optional[BitVector] = None
    alice_key: Optional[BitVector] = None
    bob_key: Optional[BitVector] = None
    keys_match: Optional[bool] = None
    pa_report: Optional[dict] = None

    def to_dict(self) -> dict:
        """The transcript as plain JSON values, keyed as in to_json."""

        def bits(v: Optional[BitVector]) -> Optional[str]:
            return None if v is None else str(v)

        return {
            "d": bits(self.d),
            "b": bits(self.b),
            "bobBases": bits(self.bob_bases),
            "sifted": list(self.sifted),
            "checkIdx": list(self.check_idx) if self.check_idx is not None else None,
            "mismatches": self.mismatches,
            "aborted": self.aborted,
            "xMinusU": bits(self.x_minus_u),
            "uHat": bits(self.u_hat),
            "key": bits(self.alice_key),
            "mode": self.mode,
            "seed": self.seed,
            "n": self.n,
            "bobBits": bits(self.bob_bits),
            "keyIdx": list(self.key_idx) if self.key_idx is not None else None,
            "bobKey": bits(self.bob_key),
            "keysMatch": self.keys_match,
            "abortReason": self.abort_reason,
            "paReport": self.pa_report,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _prepare(bit: int, basis: int) -> StateVector:
    state = basis_state(BitVector(bit, 1))
    if basis == BASIS_X:
        state = apply_gate(state, "H", 1)
    return state


@functools.cache
def _outcome_table() -> np.ndarray:
    """Outcome distributions of measuring every wire state:
    table[value, basis, x_flip, z_flip, measured_basis] = (p0, p1) for the
    qubit _prepare(value, basis) after the channel's X then Z flips,
    measured in measured_basis. Built with the dense simulator so the
    probabilities carry its exact float round-off."""
    table = np.zeros((2, 2, 2, 2, 2, 2))
    for value, basis, x_flip, z_flip, measured in itertools.product((0, 1), repeat=5):
        state = _prepare(value, basis)
        if x_flip:
            state = apply_gate(state, "X", 1)
        if z_flip:
            state = apply_gate(state, "Z", 1)
        if measured == BASIS_X:
            state = apply_gate(state, "H", 1)
        table[value, basis, x_flip, z_flip, measured] = np.abs(state.amps) ** 2
    table.setflags(write=False)
    return table


def _draw_outcomes(r: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """qsim._draw_outcome over rows of (p0, p1): r < p0 gives 0, r < p0 + p1
    gives 1, and a draw beyond a total that round-off left below 1 falls
    back to the last outcome with nonzero probability."""
    p0, p1 = probabilities[:, 0], probabilities[:, 1]
    fallback = np.where(p1 > 0.0, 1, 0)
    return np.where(r < p0, 0, np.where(r < p0 + p1, 1, fallback))


def _transport(
    d: np.ndarray,
    b: np.ndarray,
    channel: ChannelModel,
    eve: EveStrategy,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """transmit_qubit for every (d[i], b[i]) at once, returning arrays.

    One rng.random((len(d), k)) call holds every draw, row i being qubit
    i's draws in transmit_qubit's order: k is 6 with a uniform_random
    eavesdropper, 5 with a fixed-basis one and 4 with none, and the
    channel columns are drawn even when px or pz is 0.
    """
    table = _outcome_table()
    intercept = eve.kind == "intercept_resend"
    uniform = intercept and eve.basis_policy == "uniform_random"
    draws = iter(rng.random((len(d), 4 + intercept + uniform)).T)
    # The state on the wire after Eve: her resent eigenstate, which is
    # _prepare(her outcome, her basis), or else Alice's own.
    value, basis = d, b
    eve_learned = np.zeros(len(d), dtype=bool)
    if intercept:
        if uniform:
            eve_basis = np.where(next(draws) < 0.5, BASIS_Z, BASIS_X)
        else:
            eve_basis = BASIS_Z if eve.basis_policy == "always_Z" else BASIS_X
        value = _draw_outcomes(next(draws), table[d, b, 0, 0, eve_basis])
        basis = eve_basis
        eve_learned = eve_basis == b
    x_flip = (next(draws) < channel.px).astype(np.intp)
    z_flip = (next(draws) < channel.pz).astype(np.intp)
    bob_bases = np.where(next(draws) < 0.5, BASIS_Z, BASIS_X)
    bob_bits = _draw_outcomes(next(draws), table[value, basis, x_flip, z_flip, bob_bases])
    return bob_bases, bob_bits, eve_learned


def transmit_qubit(
    bit: int,
    basis: int,
    channel: ChannelModel,
    eve: EveStrategy,
    rng: np.random.Generator,
) -> tuple[int, int, bool]:
    """Send one encoded qubit through the eavesdropper and the channel to
    Bob's randomly chosen measurement.

    Draw order: Eve's basis (uniform policy only), Eve's measurement,
    channel X, channel Z, Bob's basis, Bob's measurement. Returns
    (bob_basis, bob_bit, eve_learned) where eve_learned is True exactly
    when Eve measured in the preparation basis.
    """
    if bit not in (0, 1) or basis not in (BASIS_Z, BASIS_X):
        raise ValueError(f"bit and basis must be 0 or 1, got {bit} and {basis}")
    bob_bases, bob_bits, eve_learned = _transport(
        np.array([bit]), np.array([basis]), channel, eve, rng
    )
    return int(bob_bases[0]), int(bob_bits[0]), bool(eve_learned[0])


def bennett_bound(s: int) -> float:
    """Upper bound 2^(-s)/ln 2 on the eavesdropper's information after
    shedding s extra bits; halves with each additional bit."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return 2.0**-s / math.log(2.0)


def eve_info_estimate(transcript: SessionTranscript) -> float:
    """Fraction of sifted positions where the eavesdropper measured in
    the preparation basis (and so learned the bit)."""
    if not transcript.sifted:
        return 0.0
    learned = sum(1 for i in transcript.sifted if transcript.eve_learned[i])
    return learned / len(transcript.sifted)


@dataclass(frozen=True)
class KeyDerivation:
    """The classical tail of the shor_preskill mode, from Bob's measured
    block and Alice's announcement to the two keys."""

    x_minus_u: BitVector
    u_hat: Optional[BitVector]
    decode_status: str
    alice_key: BitVector
    bob_key: Optional[BitVector]


def _bob_keys(
    c1: LinearCode,
    quot: CosetQuotient,
    table: SyndromeTable,
    bob_block: BitVector,
    x_minus_u: BitVector,
) -> tuple[str, Optional[BitVector], Optional[BitVector]]:
    """Bob's half of the shor_preskill tail: shift his block by the
    announcement to u + e1, decode it with C1, and key off the coset of
    the decoded word only when decoding succeeded. Returns
    (decode status, u_hat, bob_key)."""
    result = decode(c1, table, bob_block + x_minus_u)
    if result.status != "ok":
        return result.status, None, None
    return result.status, result.word, key_from_coset(quot, result.word)


def shor_preskill_keys(
    c1: LinearCode,
    quot: CosetQuotient,
    table: SyndromeTable,
    x: BitVector,
    u: BitVector,
    bob_block: BitVector,
) -> KeyDerivation:
    """Steps from the announcement onward: Alice announces x - u, Bob
    forms (x + e1) + (x - u) = u + e1 and decodes it with C1; both sides
    key off the coset of their codeword."""
    x_minus_u = x + u
    status, u_hat, bob_key = _bob_keys(c1, quot, table, bob_block, x_minus_u)
    return KeyDerivation(x_minus_u, u_hat, status, key_from_coset(quot, u), bob_key)


def _sift(b: np.ndarray, bob_bases: np.ndarray) -> tuple[int, ...]:
    """The positions where Bob measured in Alice's basis."""
    return tuple(np.flatnonzero(b == bob_bases).tolist())


def _transmission_phase(config: SessionConfig, rng: np.random.Generator) -> tuple[
    BitVector, BitVector, BitVector, BitVector, tuple[bool, ...], tuple[int, ...]
]:
    """Alice's raw bits and bases, their transport to Bob, and sifting:
    returns (d, b, bob_bases, bob_bits, eve_learned, sifted)."""
    d = rng.integers(0, 2, size=config.raw_length)
    b = rng.integers(0, 2, size=config.raw_length)
    bob_bases, bob_bits, eve_learned = _transport(d, b, config.channel, config.eve, rng)
    return (
        *(BitVector.from_ints(bits) for bits in (d, b, bob_bases, bob_bits)),
        tuple(eve_learned.tolist()),
        _sift(b, bob_bases),
    )


def _key_indices(selected: tuple[int, ...], check_idx: tuple[int, ...]) -> tuple[int, ...]:
    """The selected positions that are not check bits, in sifted order."""
    check_set = set(check_idx)
    return tuple(i for i in selected if i not in check_set)


def _select_blocks(
    config: SessionConfig,
    rng: np.random.Generator,
    sifted: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pick 2n of the sifted positions, then n of those as check bits;
    the remaining n form the key block. Returns (selected, check_idx)."""
    n = config.n
    picks = rng.choice(len(sifted), size=2 * n, replace=False)
    selected = tuple(sorted(sifted[p] for p in picks))
    check_picks = rng.choice(2 * n, size=n, replace=False)
    return selected, tuple(sorted(selected[p] for p in check_picks))


def _mismatches(d: BitVector, bob_bits: BitVector, check_idx: tuple[int, ...]) -> int:
    """Check positions where Alice's announced bit differs from Bob's."""
    return _block(d + bob_bits, check_idx).weight()


def _block(bits: BitVector, idx: tuple[int, ...]) -> BitVector:
    text = str(bits)
    return BitVector.from_string("".join([text[i] for i in idx]))


def _abort(transcript: SessionTranscript, reason: str) -> SessionTranscript:
    transcript.aborted = True
    transcript.abort_reason = reason
    return transcript


def run_session(config: SessionConfig) -> SessionTranscript:
    """One protocol run. Both modes share the front half: raw bits and
    bases, transport, Alice's codeword draw (shor_preskill only), sifting,
    block selection, the check-bit estimate and key-block extraction.

    The standard tail runs the reconciler hook and reports privacy
    amplification; the shor_preskill tail announces x - u, decodes Bob's
    block with C1 and keys both sides off coset labels.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    d, b, bob_bases, bob_bits, eve_flags, sifted = _transmission_phase(config, rng)
    transcript = SessionTranscript(
        mode=config.mode,
        seed=config.seed,
        n=n,
        d=d,
        b=b,
        bob_bases=bob_bases,
        bob_bits=bob_bits,
        eve_learned=eve_flags,
        sifted=sifted,
    )
    if config.mode == "shor_preskill":
        # Alice's codeword draw happens before any announcement.
        c1 = config.codes[0]
        transcript.u = c1.encode(BitVector.from_ints(rng.integers(0, 2, size=c1.k)))
    if len(sifted) < 2 * n:
        return _abort(transcript, "insufficient_sifted_bits")

    selected, check_idx = _select_blocks(config, rng, sifted)
    transcript.selected = selected
    transcript.check_idx = check_idx
    transcript.key_idx = key_idx = _key_indices(selected, check_idx)
    transcript.mismatches = _mismatches(d, bob_bits, check_idx)
    if transcript.mismatches > config.t_abort:
        return _abort(transcript, "check_bit_errors")
    transcript.alice_block = alice_block = _block(d, key_idx)
    transcript.bob_block = bob_block = _block(bob_bits, key_idx)

    if config.mode == "standard":
        if config.reconciler is not None:
            transcript.reconciled_block = config.reconciler(alice_block, bob_block)
        learned = sum(1 for i in key_idx if eve_flags[i])
        transcript.pa_report = {
            "blockMismatches": (alice_block + bob_block).weight(),
            "r": learned,
            "s": config.shed_bits,
            "targetK": n - learned - config.shed_bits,
            "eveBound": bennett_bound(config.shed_bits),
        }
        return transcript

    c1, c2 = config.codes
    table = build_syndrome_table(c1, c1.corrects)
    derivation = shor_preskill_keys(
        c1, quotient(c1, c2), table, alice_block, transcript.u, bob_block
    )
    transcript.x_minus_u = derivation.x_minus_u
    if derivation.decode_status != "ok":
        return _abort(transcript, "decode_failure")
    transcript.u_hat = derivation.u_hat
    transcript.alice_key = derivation.alice_key
    transcript.bob_key = derivation.bob_key
    transcript.keys_match = derivation.alice_key == derivation.bob_key
    return transcript


def replay_bob(
    transcript: SessionTranscript,
    c1: Optional[LinearCode] = None,
    c2: Optional[LinearCode] = None,
) -> dict:
    """Recompute Bob's side of a finished session from his measurements
    plus Alice's announcements only, through the runner's own sifting,
    key-index and decoding helpers; used to check that the transcript
    carries no hidden coupling. As in the transcript, u_hat and bob_key
    are None when decoding fails."""
    out: dict = {"sifted": _sift(transcript.b.to_numpy(), transcript.bob_bases.to_numpy())}
    if transcript.check_idx is None:
        return out
    # Alice announces her bits at the check positions.
    out["mismatches"] = _mismatches(transcript.d, transcript.bob_bits, transcript.check_idx)
    out["key_idx"] = _key_indices(transcript.selected, transcript.check_idx)
    out["bob_block"] = _block(transcript.bob_bits, out["key_idx"])
    if transcript.mode == "shor_preskill" and transcript.x_minus_u is not None:
        if c1 is None or c2 is None:
            raise ValueError("replaying a shor_preskill decode needs the code pair c1, c2")
        table = build_syndrome_table(c1, c1.corrects)
        _, out["u_hat"], out["bob_key"] = _bob_keys(
            c1, quotient(c1, c2), table, out["bob_block"], transcript.x_minus_u
        )
    return out
