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
import dataclasses
import errno
import functools
import json
import os
import sys
import time
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
from .qsim import apply_gate, apply_pauli_string, fidelity, pauli_row, support
from .verify import report_json, run_all_checks

ENV_SEED = "QKDFORGE_SEED"
# Every command with a --seed draws randomness, except the css actions
# outside this tuple; only commands that draw read $QKDFORGE_SEED.
CSS_SEEDED_ACTIONS = ("inject", "correct")


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= 0:
            return value
    raise argparse.ArgumentTypeError(
        f"invalid seed {text!r}: --seed and ${ENV_SEED} take a non-negative integer"
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


CODE_FILE_LIMIT = 1 << 24  # bytes in a code file; README Conventions has the arithmetic


@functools.lru_cache(maxsize=8)
def _code_from_text(text: str) -> LinearCode:
    return code_from_generator(parse_matrix_text(text))


def _read_code_file(path: str) -> Optional[str]:
    """The file's UTF-8 text, or None if the path names no file: one
    os.open, then plain reads of at most CODE_FILE_LIMIT + 1 bytes."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
            return None
        raise
    except ValueError:  # a NUL byte names no file
        return None
    chunks, size = [], 0
    try:
        while chunk := os.read(fd, min(1 << 16, CODE_FILE_LIMIT + 1 - size)):
            chunks.append(chunk)
            size += len(chunk)
    finally:
        os.close(fd)
    if size > CODE_FILE_LIMIT:
        raise ValueError(f"code file {path!r} is over the {CODE_FILE_LIMIT}-byte limit")
    return b"".join(chunks).decode("utf-8")


def _resolve_code(name_or_path: str, relative_to: Optional[LinearCode] = None) -> LinearCode:
    """A code argument is a built-in name, the word 'dual' (relative to
    the already-resolved partner code), or a path to a generator-matrix
    text file, read on every call; each code is built once per text."""
    if name_or_path == "dual":
        if relative_to is None:
            raise ValueError("'dual' needs a partner code to take the dual of")
        return relative_to.dual()
    if name_or_path in NAMED_CODE_NAMES:
        return named_code(name_or_path)
    try:
        text = _read_code_file(name_or_path)  # '' opens no file: ENOENT
    except OSError as exc:
        raise ValueError(f"cannot read code file {name_or_path!r}: {exc.strerror}") from None
    if text is not None:
        return _code_from_text(text)
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
        "elapsedMs": round((time.perf_counter() - started) * 1000, 3),
    }
    print(json.dumps(report, sort_keys=True))


def _cmd_codes(args: argparse.Namespace) -> int:
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
            "entries": {str(s): str(e) for s, e in table.items()},
        }
    _emit(f"codes {args.action}", {"code": args.code, "t": args.t}, None, output, args.started)
    return 0


def _cmd_qec(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    a, b = 0.6, 0.8
    code_gate, encode, correct = {
        "bitflip": ("X", bitflip_encode, bitflip_syndrome_and_correct),
        "phaseflip": ("Z", phaseflip_encode, phaseflip_syndrome_and_correct),
        "shor": ("X", shor_encode, shor_correct),
    }[args.code]
    error = args.error or code_gate
    clean = encode(a, b)
    if error == "random":
        qubit = args.qubit if args.qubit else int(rng.integers(1, clean.n + 1))
        state = apply_error(clean, random_error(rng, qubit))
    else:  # "none" names neither gate
        state = clean
        for gate in ("Z", "X") if args.qubit else ():
            if gate in error:
                state = apply_gate(state, gate, args.qubit)
    if args.code != "shor":
        outcome, corrected = correct(state, rng)
        correction = f"{code_gate}{outcome}" if outcome else None
        output = {"syndromeOutcome": outcome, "correction": correction}
    else:
        syndrome, corrected = correct(state, rng)
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
    config = {"code": args.code, "qubit": args.qubit, "error": error}
    _emit("qec demo", config, args.seed, output, args.started)
    return 0


def _code_pair(args: argparse.Namespace) -> tuple[LinearCode, LinearCode]:
    c1 = _resolve_code(args.c1)
    return c1, _resolve_code(args.c2, relative_to=c1)


def _bits(text: Optional[str], n: int, name: str) -> BitVector:
    """A bit-string option, all zeros if absent; it must hold n bits."""
    if text is None:
        return BitVector.zeros(n)
    bits = BitVector.from_string(text) if text else None
    if bits is None or len(bits) != n:
        raise ValueError(f"{name} must have length n={n}")
    return bits


def _coset_set(text: Optional[str], check: BitMatrix) -> list[BitVector]:
    """A comma-separated --x-set/--z-set, or by default one solution of
    check.v^T = s per syndrome s: a word from every coset of check's code."""
    if text is not None:
        return [BitVector.from_string(s) for s in text.split(",")]
    return [solve_particular(check, BitVector(s, check.num_rows)) for s in range(2**check.num_rows)]


def _cmd_css(args: argparse.Namespace) -> int:
    code = css_build(*_code_pair(args), args.t)
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
        _emit("css build", config, None, output, args.started)
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
        _emit("css verify", config, None, output, args.started)
        return 0
    params = CssParams(x=_bits(args.x, n, "shift x"), z=_bits(args.z, n, "phase pattern z"))
    v = _bits(args.v, n, "coset representative v")
    if args.action == "encode":
        kets = support(css_codeword(code, v, params))
        amplitudes = {ket: [a.real, a.imag] for ket, a in kets.items()}
        _emit("css encode", {**config, "v": str(v)}, None, {"amplitudes": amplitudes}, args.started)
        return 0
    # inject or correct
    rng = np.random.default_rng(args.seed)
    clean = css_codeword(code, v, params)
    clean.amps  # the report's dense read, refused past its size before any round
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
        _emit("css inject", config, args.seed, output, args.started)
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
    _emit("css correct", config, args.seed, output, args.started)
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    c1 = _resolve_code(args.code)
    code = css_build(c1, c1.dual())
    e1, e2 = _bits(args.e1, code.n, "error vectors"), _bits(args.e2, code.n, "error vectors")
    joint = inject_bob_errors(create_epr(code.n), e1, e2)
    rng = np.random.default_rng(args.seed)
    alice_key, bob_key, report = run_distillation(code, joint, rng)
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
    _emit("distill", config, args.seed, output, args.started)
    return 0


def _session_config(args: argparse.Namespace) -> SessionConfig:
    mode = "shor_preskill" if args.mode == "shor-preskill" else "standard"
    eve_kind = "intercept_resend" if args.eve == "intercept" else "none"
    codes = _code_pair(args) if mode == "shor_preskill" else None
    return SessionConfig(
        n=args.n,
        delta=args.delta,
        t_abort=args.t_abort,
        seed=args.seed,
        mode=mode,
        channel=ChannelModel(px=args.px, pz=args.pz),
        eve=EveStrategy(kind=eve_kind, basis_policy=args.eve_basis),
        codes=codes,
    )


def _cmd_bb84(args: argparse.Namespace) -> int:
    config_echo = {"tAbort": args.t_abort, "eveBasis": args.eve_basis} | {
        key: getattr(args, key) for key in ("mode", "n", "delta", "eve", "px", "pz", "c1", "c2")
    }
    if args.action == "run" and args.format == "csv":
        print("error: csv output applies to 'bb84 sweep' only", file=sys.stderr)
        return 2
    if args.action == "sweep" and args.format == "json":
        print("error: json output applies to 'bb84 run' only", file=sys.stderr)
        return 2
    config = _session_config(args)
    if args.action == "run":
        transcript = run_session(config)
        _emit("bb84 run", config_echo, args.seed, transcript.to_dict(), args.started)
        return 0
    print("seed,qber,sifted_len,aborted,key,keys_match")  # sweep: a row as each session ends
    for seed in range(args.seed, args.seed + args.runs):
        transcript = run_session(dataclasses.replace(config, seed=seed))
        qber = (
            f"{transcript.mismatches / len(transcript.check_idx):.6f}"
            if transcript.check_idx
            else ""
        )
        key = str(transcript.alice_key) if transcript.alice_key is not None else ""
        match = "" if transcript.keys_match is None else str(transcript.keys_match).lower()
        print(f"{seed},{qber},{len(transcript.sifted)},"
              f"{str(transcript.aborted).lower()},{key},{match}")
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
    """Built once per process: it reads nothing from the environment."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="qkdforge",
        description="Linear codes, CSS quantum codes, and BB84 key distribution",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_codes = sub.add_parser("codes", help="classical code tables")
    p_codes.add_argument("action", choices=["info", "table"])
    p_codes.add_argument("code", help=f"one of {list(NAMED_CODE_NAMES)} or a matrix file")
    p_codes.add_argument("--t", type=int, default=None, help="syndrome table weight bound")
    p_codes.set_defaults(func=_cmd_codes)

    p_qec = sub.add_parser("qec", help="single-error code demos")
    p_qec.add_argument("action", choices=["demo"])
    p_qec.add_argument("--code", choices=["bitflip", "phaseflip", "shor"], default="bitflip")
    p_qec.add_argument("--qubit", type=int, default=0, help="0 injects no error")
    p_qec.add_argument(
        "--error", choices=["none", "X", "Z", "XZ", "random"], help="default: the code's own gate"
    )
    p_qec.add_argument("--seed", type=_seed)
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
    p_css.add_argument("--seed", type=_seed)
    p_css.set_defaults(func=_cmd_css)

    p_distill = sub.add_parser("distill", help="entanglement distillation")
    p_distill.add_argument("--code", default="hamming74", help="C1; C2 is its dual")
    p_distill.add_argument("--e1", default=None)
    p_distill.add_argument("--e2", default=None)
    p_distill.add_argument("--seed", type=_seed)
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
    p_bb84.add_argument("--seed", type=_seed)
    p_bb84.add_argument("--runs", type=_positive_int, default=10, help="sweep size")
    p_bb84.add_argument("--format", choices=["json", "csv"], help="default: json, csv for sweep")
    p_bb84.set_defaults(func=_cmd_bb84)

    p_verify = sub.add_parser("verify", help="run the full self-check battery")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns, in one argparse pass
    when argv[0] names a subcommand: the top-level pass would only hand
    the rest to that subcommand's parser. Usage errors, help and exits are
    byte for byte those of the top-level pass."""
    parser, subparsers = _parsers()
    subparser = subparsers.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args, extras = subparser.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.subcommand = argv[0]
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    draws = args.action in CSS_SEEDED_ACTIONS if args.subcommand == "css" else "seed" in args
    if draws and args.seed is None:
        try:
            args.seed = _seed(os.environ.get(ENV_SEED, "0"))
        except argparse.ArgumentTypeError as exc:
            build_parser().error(str(exc))
    try:
        args.started = time.perf_counter()  # every report's elapsedMs counts from here
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left: stdout to devnull, so the exit flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
