"""Command-line entry point.

Subcommands cover the classical code tables, the single-error quantum
demos, CSS encode/correct/verify, entanglement distillation, the BB84
protocol runner with CSV sweeps, and the self-verification battery.
Reports go to stdout as JSON (or CSV for sweeps); diagnostics go to
stderr. Exit codes: 0 success, 1 domain error or failed verification,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .bb84 import ChannelModel, EveStrategy, SessionConfig, run_session
from .codes import (
    LinearCode,
    NAMED_CODE_NAMES,
    build_syndrome_table,
    code_from_generator,
    named_code,
)
from .css import (
    CssParams,
    css_bit_syndrome,
    css_build,
    css_codeword,
    css_correct,
    css_phase_syndrome,
    verify_basis_identities,
)
from .distill import create_epr, inject_bob_errors, run_distillation
from .gf2 import BitMatrix, BitVector, parse_matrix_text, solve_particular
from .qec3 import (
    bitflip_encode,
    bitflip_syndrome_and_correct,
    phaseflip_encode,
    phaseflip_syndrome_and_correct,
    random_error,
    apply_error,
    shor_encode,
    shor_correct,
)
from .qsim import apply_gate, apply_pauli_string, fidelity, pauli_row
from .verify import report_json, run_all_checks

ENV_SEED = "QKDFORGE_SEED"
# The css actions that draw randomness; only they read --seed or $QKDFORGE_SEED.
CSS_SEEDED_ACTIONS = ("inject", "correct")


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid seed {text!r}: --seed and ${ENV_SEED} take an integer"
        ) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _resolve_code(name_or_path: str, relative_to: Optional[LinearCode] = None) -> LinearCode:
    """A code argument is a built-in name, the word 'dual' (relative to
    the already-resolved partner code), or a path to a generator-matrix
    text file."""
    if name_or_path == "dual":
        if relative_to is None:
            raise ValueError("'dual' needs a partner code to take the dual of")
        return relative_to.dual()
    if name_or_path in NAMED_CODE_NAMES:
        return named_code(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return code_from_generator(parse_matrix_text(path.read_text()))
    raise ValueError(
        f"unknown code {name_or_path!r}: expected one of {list(NAMED_CODE_NAMES)}, "
        "'dual', or a path to a matrix file"
    )


def _emit(command: str, config: dict, seed: Optional[int], output, started: float) -> None:
    report = {
        "command": command,
        "config": config,
        "seed": seed,
        "output": output,
        "elapsedMs": round((time.time() - started) * 1000, 3),
    }
    print(json.dumps(report, sort_keys=True))


def _cmd_codes(args: argparse.Namespace) -> int:
    started = time.time()
    code = _resolve_code(args.code)
    if args.action == "info":
        d, u, t = code.weights
        output = {
            "n": code.n,
            "k": code.k,
            "d": d,
            "detects": u,
            "corrects": t,
            "generator": [str(r) for r in code.G.rows],
            "check": [str(r) for r in code.H.rows],
        }
    else:  # table
        t_max = args.t if args.t is not None else code.corrects
        table = build_syndrome_table(code, t_max)
        output = {
            "tMax": t_max,
            "entries": {str(s): str(e) for s, e in sorted(
                table.entries.items(), key=lambda kv: str(kv[0])
            )},
        }
    _emit(f"codes {args.action}", {"code": args.code, "t": args.t}, None, output, started)
    return 0


def _cmd_qec(args: argparse.Namespace) -> int:
    started = time.time()
    rng = np.random.default_rng(args.seed)
    a, b = 0.6, 0.8
    if args.code == "bitflip":
        clean = bitflip_encode(a, b)
        state = apply_gate(clean, "X", args.qubit) if args.qubit else clean
        outcome, corrected = bitflip_syndrome_and_correct(state, rng)
        output = {"syndromeOutcome": outcome, "correction": f"X{outcome}" if outcome else None}
    elif args.code == "phaseflip":
        clean = phaseflip_encode(a, b)
        state = apply_gate(clean, "Z", args.qubit) if args.qubit else clean
        outcome, corrected = phaseflip_syndrome_and_correct(state, rng)
        output = {"syndromeOutcome": outcome, "correction": f"Z{outcome}" if outcome else None}
    else:  # shor
        clean = shor_encode(a, b)
        if args.error == "random":
            qubit = args.qubit if args.qubit else int(rng.integers(1, 10))
            state = apply_error(clean, random_error(rng, qubit))
        elif args.error == "none" or not args.qubit:
            state = clean
        else:
            state = clean
            if "Z" in args.error:
                state = apply_gate(state, "Z", args.qubit)
            if "X" in args.error:
                state = apply_gate(state, "X", args.qubit)
        syndrome, corrected = shor_correct(state, rng)
        output = {
            "syndromeOutcome": {
                "flippedQubits": list(syndrome.flipped_qubits),
                "phaseBlock": syndrome.phase_block,
            },
            "correction": {
                "x": list(syndrome.flipped_qubits),
                "zBlock": syndrome.phase_block or None,
            },
        }
    output["fidelity"] = fidelity(corrected, clean)
    config = {"code": args.code, "qubit": args.qubit, "error": args.error}
    _emit("qec demo", config, args.seed, output, started)
    return 0


def _build_css(args: argparse.Namespace):
    c1 = _resolve_code(args.c1)
    c2 = _resolve_code(args.c2, relative_to=c1)
    t = args.t if args.t is not None else min(c1.corrects, c2.dual().corrects)
    return css_build(c1, c2, t)


def _bits(text: Optional[str], n: int, name: str) -> BitVector:
    """A bit-string option, all zeros if absent; it must hold n bits."""
    if not text:
        return BitVector.zeros(n)
    bits = BitVector.from_string(text)
    if len(bits) != n:
        raise ValueError(f"{name} must have length n={n}")
    return bits


def _coset_set(text: Optional[str], check: BitMatrix) -> list[BitVector]:
    """A comma-separated --x-set/--z-set, or by default one solution of
    check.v^T = s per syndrome s: a word from every coset of check's code."""
    if text is not None:
        return [BitVector.from_string(s) for s in text.split(",")]
    return [solve_particular(check, BitVector(s, check.num_rows)) for s in range(2**check.num_rows)]


def _cmd_css(args: argparse.Namespace) -> int:
    started = time.time()
    code = _build_css(args)
    n = code.n
    config = {"c1": args.c1, "c2": args.c2, "t": code.t}
    if args.action == "build":
        output = {
            "n": n,
            "k": code.k,
            "t": code.t,
            "h1": [str(r) for r in code.h1.rows],
            "h2": [str(r) for r in code.h2.rows],
            "bitTableSize": len(code.bit_table),
            "phaseTableSize": len(code.phase_table),
        }
        _emit("css build", config, None, output, started)
        return 0
    if args.action == "verify":
        x_set = _coset_set(args.x_set, code.h1)
        z_set = _coset_set(args.z_set, code.h2)
        report = verify_basis_identities(code, x_set, z_set)
        output = {
            "states": report.states,
            "orthonormalityDeviation": report.orthonormality_deviation,
            "phaseBranchDeviation": report.phase_branch_deviation,
            "completenessDeviation": report.completeness_deviation,
        }
        _emit("css verify", config, None, output, started)
        return 0
    params = CssParams(x=_bits(args.x, n, "shift x"), z=_bits(args.z, n, "phase pattern z"))
    v = _bits(args.v, n, "coset representative v")
    if args.action == "encode":
        state = css_codeword(code, v, params)
        support = {
            state.ket_label(i): [float(a.real), float(a.imag)]
            for i, a in enumerate(state.amps)
            if abs(a) > 1e-12
        }
        _emit("css encode", {**config, "v": str(v)}, None, {"amplitudes": support}, started)
        return 0
    # inject or correct
    rng = np.random.default_rng(args.seed)
    clean = css_codeword(code, v, params)
    e1, e2 = _bits(args.e1, n, "error vectors"), _bits(args.e2, n, "error vectors")
    state = apply_pauli_string(clean, pauli_row(e2, "Z"))
    state = apply_pauli_string(state, pauli_row(e1, "X"))
    config = {**config, "v": str(v), "e1": str(e1), "e2": str(e2)}
    if args.action == "inject":
        bit_syndrome, state = css_bit_syndrome(code, state, rng)
        phase_syndrome, state = css_phase_syndrome(code, state, rng)
        output = {
            "bitSyndrome": str(bit_syndrome),
            "phaseSyndrome": str(phase_syndrome),
            "fidelityWithClean": fidelity(state, clean),
        }
        _emit("css inject", config, args.seed, output, started)
        return 0
    result = css_correct(code, state, params, rng)
    output = {
        "status": result.status,
        "bitSyndrome": str(result.bit_syndrome),
        "phaseSyndrome": str(result.phase_syndrome) if result.phase_syndrome else None,
        "xCorrection": str(result.x_correction) if result.x_correction else None,
        "zCorrection": str(result.z_correction) if result.z_correction else None,
        "fidelity": fidelity(result.state, clean),
    }
    _emit("css correct", config, args.seed, output, started)
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    started = time.time()
    c1 = _resolve_code(args.code)
    code = css_build(c1, c1.dual(), c1.corrects)
    e1, e2 = _bits(args.e1, code.n, "error vectors"), _bits(args.e2, code.n, "error vectors")
    session = inject_bob_errors(create_epr(code.n, code), e1, e2)
    rng = np.random.default_rng(args.seed)
    alice_key, bob_key, report = run_distillation(session, rng)
    output = {
        "aliceKey": str(alice_key),
        "bobKey": str(bob_key),
        "keysMatch": alice_key == bob_key,
        "x": str(report.x),
        "z": str(report.z),
        "aliceBitSyndrome": str(report.alice_bit_syndrome),
        "alicePhaseSyndrome": str(report.alice_phase_syndrome),
        "bobBitSyndrome": str(report.bob_bit_syndrome),
        "bobPhaseSyndrome": str(report.bob_phase_syndrome),
        "bitCorrection": str(report.bit_correction),
        "phaseCorrection": str(report.phase_correction),
        "aliceBits": str(report.alice_bits),
        "bobBits": str(report.bob_bits),
    }
    config = {"code": args.code, "e1": str(e1), "e2": str(e2)}
    _emit("distill", config, args.seed, output, started)
    return 0


def _session_config(args: argparse.Namespace, seed: int) -> SessionConfig:
    mode = "shor_preskill" if args.mode == "shor-preskill" else "standard"
    eve_kind = "intercept_resend" if args.eve == "intercept" else "none"
    codes = None
    if mode == "shor_preskill":
        c1 = _resolve_code(args.c1)
        c2 = _resolve_code(args.c2, relative_to=c1)
        codes = (c1, c2)
    return SessionConfig(
        n=args.n,
        delta=args.delta,
        t_abort=args.t_abort,
        seed=seed,
        mode=mode,
        channel=ChannelModel(px=args.px, pz=args.pz),
        eve=EveStrategy(kind=eve_kind, basis_policy=args.eve_basis),
        codes=codes,
    )


def _cmd_bb84(args: argparse.Namespace) -> int:
    started = time.time()
    config_echo = {
        "mode": args.mode,
        "n": args.n,
        "delta": args.delta,
        "tAbort": args.t_abort,
        "eve": args.eve,
        "eveBasis": args.eve_basis,
        "px": args.px,
        "pz": args.pz,
        "c1": args.c1,
        "c2": args.c2,
    }
    if args.action == "run":
        if args.format == "csv":
            print("error: csv output applies to 'bb84 sweep' only", file=sys.stderr)
            return 2
        transcript = run_session(_session_config(args, args.seed))
        _emit("bb84 run", config_echo, args.seed, transcript.to_dict(), started)
        return 0
    # sweep
    rows = ["seed,qber,sifted_len,aborted,key,keys_match"]
    for seed in range(args.seed, args.seed + args.runs):
        transcript = run_session(_session_config(args, seed))
        qber = (
            f"{transcript.mismatches / len(transcript.check_idx):.6f}"
            if transcript.check_idx
            else ""
        )
        key = str(transcript.alice_key) if transcript.alice_key is not None else ""
        match = "" if transcript.keys_match is None else str(transcript.keys_match).lower()
        rows.append(
            f"{seed},{qber},{len(transcript.sifted)},"
            f"{str(transcript.aborted).lower()},{key},{match}"
        )
    print("\n".join(rows))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all_checks()
    if args.format == "json":
        print(report_json(results))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name}" + (f" -- {r.detail}" if r.detail else ""))
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdforge",
        description="Linear codes, CSS quantum codes, and BB84 key distribution",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # argparse converts a string default only when a subcommand that takes
    # --seed runs without it, so a bad variable fails just those, as usage.
    # css defaults to None instead: main reads the variable only for the
    # CSS_SEEDED_ACTIONS.
    seed = {"type": _seed, "default": os.environ.get(ENV_SEED, "0")}

    p_codes = sub.add_parser("codes", help="classical code tables")
    p_codes.add_argument("action", choices=["info", "table"])
    p_codes.add_argument("code", help=f"one of {list(NAMED_CODE_NAMES)} or a matrix file")
    p_codes.add_argument("--t", type=int, default=None, help="syndrome table weight bound")
    p_codes.set_defaults(func=_cmd_codes)

    p_qec = sub.add_parser("qec", help="single-error code demos")
    p_qec.add_argument("action", choices=["demo"])
    p_qec.add_argument("--code", choices=["bitflip", "phaseflip", "shor"], default="bitflip")
    p_qec.add_argument("--qubit", type=int, default=0, help="0 injects no error")
    p_qec.add_argument("--error", choices=["none", "X", "Z", "XZ", "random"], default="X")
    p_qec.add_argument("--seed", **seed)
    p_qec.set_defaults(func=_cmd_qec)

    p_css = sub.add_parser("css", help="CSS code operations")
    p_css.add_argument("action", choices=["build", "encode", "inject", "correct", "verify"])
    p_css.add_argument("--c1", default="hamming74")
    p_css.add_argument("--c2", default="dual")
    p_css.add_argument("--t", type=int, default=None)
    p_css.add_argument("--v", default=None, help="coset representative to encode")
    p_css.add_argument("--x", default=None)
    p_css.add_argument("--z", default=None)
    p_css.add_argument("--e1", default=None, help="bit-flip pattern")
    p_css.add_argument("--e2", default=None, help="phase-flip pattern")
    p_css.add_argument("--x-set", default=None, help="default: one shift per coset of C1")
    p_css.add_argument("--z-set", default=None, help="default: one pattern per coset of C2-dual")
    p_css.add_argument("--seed", type=_seed, default=None)
    p_css.set_defaults(func=_cmd_css)

    p_distill = sub.add_parser("distill", help="entanglement distillation")
    p_distill.add_argument("--code", default="hamming74", help="C1; C2 is its dual")
    p_distill.add_argument("--e1", default=None)
    p_distill.add_argument("--e2", default=None)
    p_distill.add_argument("--seed", **seed)
    p_distill.set_defaults(func=_cmd_distill)

    p_bb84 = sub.add_parser("bb84", help="protocol sessions")
    p_bb84.add_argument("action", choices=["run", "sweep"])
    p_bb84.add_argument("--mode", choices=["standard", "shor-preskill"], default="standard")
    p_bb84.add_argument("--n", type=int, default=7)
    p_bb84.add_argument("--delta", type=float, default=0.25)
    p_bb84.add_argument("--t-abort", type=int, default=None)
    p_bb84.add_argument("--eve", choices=["none", "intercept"], default="none")
    p_bb84.add_argument(
        "--eve-basis",
        choices=["uniform_random", "always_Z", "always_X"],
        default="uniform_random",
    )
    p_bb84.add_argument("--px", type=float, default=0.0)
    p_bb84.add_argument("--pz", type=float, default=0.0)
    p_bb84.add_argument("--c1", default="hamming74")
    p_bb84.add_argument("--c2", default="dual")
    p_bb84.add_argument("--seed", **seed)
    p_bb84.add_argument("--runs", type=_positive_int, default=10, help="sweep size")
    p_bb84.add_argument("--format", choices=["json", "csv"], default="json")
    p_bb84.set_defaults(func=_cmd_bb84)

    p_verify = sub.add_parser("verify", help="run the full self-check battery")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "css" and args.action in CSS_SEEDED_ACTIONS and args.seed is None:
        try:
            args.seed = _seed(os.environ.get(ENV_SEED, "0"))
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
