"""Prepare-and-measure key distribution with closed-form batched transport.

One runner, run_session, serves both protocol modes. They share
transmission, sifting and the check-bit estimate, and differ only in the
classical tail:

- standard: privacy amplification is reported as a target key length
  with the exponential information bound; reconciliation is not run.
- shor_preskill: a nested code pair does the work classically. Alice
  draws a random codeword u of C1, announces x - u over the classical
  channel, Bob shifts his block to u + e1 and decodes it with the bit
  table of css_build(C1, C2), at the t that distillation uses, and both
  sides map to the key through the coset label of u.

Every random decision flows through one seeded generator in a documented
order (raw bits, basis bits, transport draws qubit by qubit in the order
_transport states, codeword draw in shor_preskill mode, subset
selections), so a (config, seed) pair pins the whole transcript.

Every qubit on the wire is one of the four BB84 states, and the
eavesdropper's measure-and-resend and the X/Z channel map that set onto
itself up to a phase. Transport is therefore one comparison per
measurement, of a uniform against one of 32 thresholds that the dense
simulator's outcome distributions give, built once: no state vector is
made per qubit.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .codes import LinearCode, decode, key_from_coset
from .css import CssCode, css_build
from .gf2 import BitVector
from .qsim import apply_gate, basis_state

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
    shed_bits: int = 0  # extra bits sacrificed in the amplification report

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be between 1 and {MAX_N}, got {self.n}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        raw = (4 + self.delta) * self.n  # before raw_length's ceil, which fails on an inf
        if raw > MAX_RAW_LENGTH:
            raise ValueError(f"raw block of {raw} qubits exceeds {MAX_RAW_LENGTH}; lower n or delta")
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
            css_build(*self.codes)  # the nesting, both capacities and both tables

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
    eve_learned: BitVector  # bit i is 1 when Eve measured qubit i in Alice's basis
    sifted: tuple[int, ...]
    selected: Optional[tuple[int, ...]] = None
    check_idx: Optional[tuple[int, ...]] = None
    key_idx: Optional[tuple[int, ...]] = None
    mismatches: Optional[int] = None
    aborted: bool = False
    abort_reason: Optional[str] = None
    alice_block: Optional[BitVector] = None
    bob_block: Optional[BitVector] = None
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


@functools.cache
def _thresholds() -> np.ndarray:
    """One threshold per wire state, channel flips and measured basis,
    from the dense simulator so it carries its exact float round-off.
    Entry ((((value*2 + basis)*2 + x_flip)*2 + z_flip)*2 + measured) is
    p0 where p1 > 0, else +inf, for (p0, p1) the outcome distribution of
    |value> (after H in the X basis) after the channel's X then Z flips,
    measured in the measured basis. A measurement with uniform r gives 1
    exactly when r >= the threshold: qsim._draw_outcome's branch over
    (p0, p1), including the fallback for a total that round-off left
    below 1."""
    thresholds = np.empty(32)
    cells = itertools.product((0, 1), repeat=5)
    for cell, (value, basis, x_flip, z_flip, measured) in enumerate(cells):
        state = basis_state(BitVector(value, 1))
        gates = ("H", basis == BASIS_X), ("X", x_flip), ("Z", z_flip), ("H", measured == BASIS_X)
        for gate, applies in gates:
            if applies:
                state = apply_gate(state, gate, 1)
        p0, p1 = np.abs(state.amps) ** 2
        thresholds[cell] = p0 if p1 > 0.0 else np.inf
    thresholds.setflags(write=False)
    return thresholds


def _transport(
    d: np.ndarray,
    b: np.ndarray,
    channel: ChannelModel,
    eve: EveStrategy,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Send qubit d[i], prepared in basis b[i], past Eve and the channel to
    Bob's random measurement for every i at once; eve_learned[i] is True
    exactly when Eve measured in the preparation basis. One
    rng.random((len(d), k)) call fills row by row, qubit i's row in the
    order Eve's basis (uniform_random policy only), Eve's measurement,
    channel X, channel Z, Bob's basis, Bob's measurement: k is 6, 5 with a
    fixed-basis eavesdropper and 4 with none, and the channel columns are
    drawn even when px or pz is 0.
    """
    thresholds = _thresholds()
    intercept = eve.kind == "intercept_resend"
    uniform = intercept and eve.basis_policy == "uniform_random"
    draws = iter(rng.random((len(d), 4 + intercept + uniform)).T)
    # The state on the wire after Eve: her resent eigenstate, which is
    # her outcome prepared in her basis, or else Alice's own.
    value, basis = d, b
    eve_learned = np.zeros(len(d), dtype=bool)
    if intercept:
        if uniform:  # r < 0.5 picks BASIS_Z (0), else BASIS_X (1)
            eve_basis = (next(draws) >= 0.5).astype(np.intp)
        else:
            eve_basis = BASIS_Z if eve.basis_policy == "always_Z" else BASIS_X
        # Eve measures Alice's qubit before the channel: the cells with no flips.
        value = (next(draws) >= thresholds[(d * 2 + b) * 8 + eve_basis]).astype(np.intp)
        basis = eve_basis
        eve_learned = eve_basis == b
    x_flip = next(draws) < channel.px
    z_flip = next(draws) < channel.pz
    bob_bases = (next(draws) >= 0.5).astype(np.intp)
    cell = (((value * 2 + basis) * 2 + x_flip) * 2 + z_flip) * 2 + bob_bases
    bob_bits = (next(draws) >= thresholds[cell]).astype(np.intp)
    return bob_bases, bob_bits, eve_learned


def bennett_bound(s: int) -> float:
    """Upper bound 2^(-s)/ln 2 on the eavesdropper's information after
    shedding s extra bits; halves with each additional bit."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return 2.0**-s / math.log(2.0)


def eve_info_estimate(transcript: SessionTranscript) -> float:
    """Fraction of sifted positions where the eavesdropper measured in
    the preparation basis (and so learned the bit): the sifted positions
    whose bit of the transcript's eve_learned is 1."""
    if not transcript.sifted:
        return 0.0
    learned = sum(transcript.eve_learned[i] for i in transcript.sifted)
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
    code: CssCode, bob_block: BitVector, x_minus_u: BitVector
) -> tuple[str, Optional[BitVector], Optional[BitVector]]:
    """Bob's half of the shor_preskill tail: shift his block by the
    announcement to u + e1, decode it with the CSS code's bit table, up to
    its t as css_correct does, and key off the coset of the decoded word
    only when decoding succeeded. Returns (decode status, u_hat, bob_key)."""
    result = decode(code.c1, code.bit_table, bob_block + x_minus_u)
    if result.status != "ok":
        return result.status, None, None
    return result.status, result.word, key_from_coset(code.quotient, result.word)


def shor_preskill_keys(
    c1: LinearCode, c2: LinearCode, x: BitVector, u: BitVector, bob_block: BitVector
) -> KeyDerivation:
    """Steps from the announcement onward: Alice announces x - u, Bob
    forms (x + e1) + (x - u) = u + e1 and decodes it, and both sides key
    off the coset of their codeword, all with the code css_build(c1, c2)."""
    code = css_build(c1, c2)
    x_minus_u = x + u
    status, u_hat, bob_key = _bob_keys(code, bob_block, x_minus_u)
    return KeyDerivation(x_minus_u, u_hat, status, key_from_coset(code.quotient, u), bob_key)


def _sift(b: np.ndarray, bob_bases: np.ndarray) -> np.ndarray:
    """The positions where Bob measured in Alice's basis."""
    return (b == bob_bases).nonzero()[0]


def _select_blocks(
    n: int, rng: np.random.Generator, sifted: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick 2n of the sifted positions, then n of those as check bits;
    the remaining n form the key block. Returns (selected, check_idx,
    key_idx), each in sifted order."""
    picks = rng.choice(len(sifted), size=2 * n, replace=False)
    picks.sort()  # sifted is increasing, so sorted picks select in sifted order
    selected = sifted[picks]
    is_check = np.zeros(2 * n, dtype=bool)
    is_check[rng.choice(2 * n, size=n, replace=False)] = True
    return selected, selected[is_check], selected[~is_check]


def _mismatches(d: np.ndarray, bob_bits: np.ndarray, check_idx: np.ndarray) -> int:
    """Check positions where Alice's announced bit differs from Bob's."""
    return int(np.count_nonzero(d[check_idx] != bob_bits[check_idx]))


def _pack_rows(rows: np.ndarray) -> list[BitVector]:
    """Each row of a 2-D uint8 array of 0s and 1s as a BitVector, from
    one packbits pass over the whole array."""
    length, shift = rows.shape[1], -rows.shape[1] % 8
    packed = np.packbits(rows, axis=1)
    return [BitVector(int.from_bytes(row.tobytes(), "big") >> shift, length) for row in packed]


def _abort(transcript: SessionTranscript, reason: str) -> SessionTranscript:
    transcript.aborted = True
    transcript.abort_reason = reason
    return transcript


def run_session(config: SessionConfig) -> SessionTranscript:
    """One protocol run. Both modes share the front half: raw bits and
    bases, transport, Alice's codeword draw (shor_preskill only), sifting,
    block selection, the check-bit estimate and key-block extraction.

    The standard tail reports privacy amplification; the shor_preskill
    tail announces x - u, decodes Bob's block with css_build's bit table
    and keys both sides off coset labels.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    # PCG64 keeps the unused 32-bit half of a draw across calls, so one
    # call draws exactly the bits of a call for d and then one for b.
    d, b = rng.integers(0, 2, size=(2, config.raw_length))
    bob_bases, bob_bits, eve_learned = _transport(d, b, config.channel, config.eve, rng)
    sifted = _sift(b, bob_bases)
    # The five raw rows, in SessionTranscript's field order.
    raw = np.array((d, b, bob_bases, bob_bits, eve_learned), dtype=np.uint8)
    transcript = SessionTranscript(
        config.mode, config.seed, n, *_pack_rows(raw), sifted=tuple(sifted.tolist())
    )
    if config.mode == "shor_preskill":
        # Alice's codeword draw happens before any announcement.
        c1 = config.codes[0]
        transcript.u = c1.encode(BitVector.from_ints(rng.integers(0, 2, size=c1.k)))
    if len(sifted) < 2 * n:
        return _abort(transcript, "insufficient_sifted_bits")

    selected, check_idx, key_idx = _select_blocks(n, rng, sifted)
    transcript.selected = tuple(selected.tolist())
    transcript.check_idx = tuple(check_idx.tolist())
    transcript.key_idx = tuple(key_idx.tolist())
    transcript.mismatches = _mismatches(d, bob_bits, check_idx)
    if transcript.mismatches > config.t_abort:
        return _abort(transcript, "check_bit_errors")
    alice_block, bob_block = _pack_rows(np.array((d[key_idx], bob_bits[key_idx]), dtype=np.uint8))
    transcript.alice_block, transcript.bob_block = alice_block, bob_block

    if config.mode == "standard":
        learned = int(np.count_nonzero(eve_learned[key_idx]))
        transcript.pa_report = {
            "blockMismatches": (alice_block + bob_block).weight(),
            "r": learned,
            "s": config.shed_bits,
            "targetK": n - learned - config.shed_bits,
            "eveBound": bennett_bound(config.shed_bits),
        }
        return transcript

    derivation = shor_preskill_keys(*config.codes, alice_block, transcript.u, bob_block)
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
    check-count and decoding helpers; used to check that the transcript
    carries no hidden coupling. As in the transcript, u_hat and bob_key
    are None when decoding fails."""
    sifted = _sift(transcript.b.to_numpy(), transcript.bob_bases.to_numpy())
    out: dict = {"sifted": tuple(sifted.tolist())}
    if transcript.check_idx is None:
        return out
    bob_bits = transcript.bob_bits.to_numpy()
    selected, check_idx = np.array(transcript.selected), np.array(transcript.check_idx)
    # Alice announces her bits at the check positions.
    out["mismatches"] = _mismatches(transcript.d.to_numpy(), bob_bits, check_idx)
    key_idx = selected[~np.isin(selected, check_idx)]
    out["key_idx"] = tuple(key_idx.tolist())
    out["bob_block"] = BitVector.from_ints(bob_bits[key_idx])
    if transcript.mode == "shor_preskill" and transcript.x_minus_u is not None:
        if c1 is None or c2 is None:
            raise ValueError("replaying a shor_preskill decode needs the code pair c1, c2")
        _, out["u_hat"], out["bob_key"] = _bob_keys(
            css_build(c1, c2), out["bob_block"], transcript.x_minus_u
        )
    return out
