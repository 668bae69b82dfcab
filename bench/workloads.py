"""The benchmark's workloads: how each op's CLI calls are built from the
seed, and how each call's JSON report is checked.

An op is one set of `qkdforge` CLI calls. Op i of a run with workload
seed S draws all of its inputs from `numpy.random.default_rng([S, i])`,
so a (workload, seed) pair fixes every argv the program sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from qkdforge.codes import (
    build_syndrome_table,
    code_from_generator,
    decode,
    key_from_coset,
    named_code,
    quotient,
)
from qkdforge.gf2 import BitVector, parse_matrix_text

WORK_DIR = Path("bench") / "_work"
H15_PATH = WORK_DIR / "h15.txt"
FIDELITY_ATOL = 1e-9


def h15_rows() -> list[str]:
    """Generator of the [15, 11] Hamming code in systematic form [I | P].

    Row i carries the i-th 4-bit column of weight >= 2, so the check
    matrix [P^T | I] holds every nonzero 4-bit column exactly once.
    """
    columns = [c for c in range(1, 16) if c & (c - 1)]
    rows = []
    for i, column in enumerate(columns):
        identity = ["0"] * len(columns)
        identity[i] = "1"
        rows.append("".join(identity) + format(column, "04b"))
    return rows


def write_h15() -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    H15_PATH.write_text("\n".join(h15_rows()) + "\n")
    return H15_PATH


@dataclass
class Op:
    """The argv of each CLI call in one op, plus the inputs its checks need."""

    calls: list[list[str]]
    expect: dict = field(default_factory=dict)


# check(op, reports) -> (problems found, secret key bits the op produced)
Check = Callable[[Op, list[dict]], tuple[list[str], int]]


@dataclass
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    make_op: Callable[[np.random.Generator], Op]
    checker: Callable[[], Check]  # called once the matrix file is written
    trace_ops: int  # length of the fixed op prefix a traced run repeats


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _cli_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _bits(rng: np.random.Generator, n: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=n))


def _weight_le1(rng: np.random.Generator, n: int) -> str:
    """A pattern of weight 0 (one time in n + 1) or 1."""
    position = int(rng.integers(0, n + 1))
    return "".join("1" if i + 1 == position else "0" for i in range(n))


# --- shared BB84 report checks ---------------------------------------------


def _pick(bits: str, idx: list[int]) -> str:
    return "".join(bits[i] for i in idx)


def _check_bb84(out: dict, n: int) -> list[str]:
    """Checks every BB84 report must pass, in either mode. t_abort is the
    CLI default n, so a session aborts only for too few sifted bits (or,
    in shor-preskill mode, a decode failure)."""
    problems = []
    d, b, bases, bob = out["d"], out["b"], out["bobBases"], out["bobBits"]
    if not len(d) == len(b) == len(bases) == len(bob):
        return ["raw strings differ in length"]
    sifted = [i for i in range(len(b)) if b[i] == bases[i]]
    if out["sifted"] != sifted:
        problems.append("sifted is not the positions where b == bobBases")
    check, key = out["checkIdx"], out["keyIdx"]
    if check is None:
        if not (out["aborted"] and out["abortReason"] == "insufficient_sifted_bits"):
            problems.append("no check bits without an insufficient-sifted abort")
        if len(sifted) >= 2 * n:
            problems.append("aborted for too few sifted bits with enough of them")
        return problems
    if out["mismatches"] != sum(d[i] != bob[i] for i in check):
        problems.append("mismatches does not recount over checkIdx")
    cset, kset = set(check), set(key)
    if len(check) != n or len(cset) != n or len(key) != n or len(kset) != n:
        problems.append("checkIdx and keyIdx are not n-subsets")
    if cset & kset:
        problems.append("checkIdx and keyIdx overlap")
    if not (cset | kset) <= set(sifted):
        problems.append("checkIdx or keyIdx leaves the sifted set")
    return problems


# --- std-eve ---------------------------------------------------------------

STD_N = 200


def _std_op(rng: np.random.Generator) -> Op:
    return Op(calls=[[
        "bb84", "run", "--mode", "standard", "--n", str(STD_N),
        "--eve", "intercept", "--px", "0.02", "--pz", "0.02",
        "--seed", _cli_seed(rng),
    ]])


def _std_check(op: Op, reports: list[dict]) -> tuple[list[str], int]:
    out = reports[0]["output"]
    problems = _check_bb84(out, STD_N)
    if out["checkIdx"] is None:
        return problems, 0
    pa = out["paReport"]
    if pa is None:
        return problems + ["a standard session without an abort has no paReport"], 0
    key = out["keyIdx"]
    block = sum(a != b for a, b in zip(_pick(out["d"], key), _pick(out["bobBits"], key)))
    if pa["blockMismatches"] != block:
        problems.append("paReport.blockMismatches does not recount over keyIdx")
    if not 0 <= pa["r"] <= STD_N or pa["targetK"] != STD_N - pa["r"] - pa["s"]:
        problems.append("paReport.targetK is not n - r - s")
    return problems, max(pa["targetK"], 0)


# --- sp-h15 ----------------------------------------------------------------

SP_N = 15


def _sp_op(rng: np.random.Generator) -> Op:
    return Op(calls=[[
        "bb84", "run", "--mode", "shor-preskill", "--c1", H15_PATH.as_posix(),
        "--c2", "dual", "--n", str(SP_N), "--px", "0.01", "--pz", "0.01",
        "--seed", _cli_seed(rng),
    ]])


class H15Reference:
    """Bob's side of the shor-preskill tail, rebuilt from the matrix file
    with public functions, to check reports against."""

    def __init__(self, path: Path = H15_PATH) -> None:
        self.c1 = code_from_generator(parse_matrix_text(path.read_text()))
        self.c2 = self.c1.dual()
        self.table = build_syndrome_table(self.c1, self.c1.corrects)
        self.quot = quotient(self.c1, self.c2)


def _sp_check(ref: H15Reference, op: Op, reports: list[dict]) -> tuple[list[str], int]:
    out = reports[0]["output"]
    problems = _check_bb84(out, SP_N)
    if out["aborted"]:
        if out["abortReason"] not in ("insufficient_sifted_bits", "decode_failure"):
            problems.append(f"unexpected abort reason {out['abortReason']!r}")
        return problems, 0
    received = BitVector.from_string(_pick(out["bobBits"], out["keyIdx"]))
    result = decode(ref.c1, ref.table, received + BitVector.from_string(out["xMinusU"]))
    if result.status != "ok" or str(result.word) != out["uHat"]:
        problems.append("decoding bobBits[keyIdx] + xMinusU does not give uHat")
    elif str(key_from_coset(ref.quot, result.word)) != out["bobKey"]:
        problems.append("key_from_coset(uHat) is not bobKey")
    if out["keysMatch"] != (out["key"] == out["bobKey"]):
        problems.append("keysMatch disagrees with key == bobKey")
    return problems, len(out["key"]) if out["keysMatch"] else 0


# --- css-distill -----------------------------------------------------------

_HAMMING74_G = named_code("hamming74").G.to_numpy()


def _css_op(rng: np.random.Generator) -> Op:
    n, k = _HAMMING74_G.shape[1], _HAMMING74_G.shape[0]
    message = rng.integers(0, 2, size=k)
    v = "".join(str(int(b)) for b in (message @ _HAMMING74_G) % 2)
    x, z = _bits(rng, n), _bits(rng, n)
    e1, e2 = _weight_le1(rng, n), _weight_le1(rng, n)
    f1, f2 = _weight_le1(rng, n), _weight_le1(rng, n)
    seed = _cli_seed(rng)
    return Op(
        calls=[
            ["css", "correct", "--c1", "hamming74", "--c2", "dual", "--v", v,
             "--x", x, "--z", z, "--e1", e1, "--e2", e2, "--seed", seed],
            ["distill", "--code", "hamming74", "--e1", f1, "--e2", f2, "--seed", seed],
        ],
        expect={"e1": e1, "e2": e2, "f1": f1, "f2": f2},
    )


def _css_check(op: Op, reports: list[dict]) -> tuple[list[str], int]:
    problems = []
    corrected, distilled = reports[0]["output"], reports[1]["output"]
    if corrected["status"] != "ok":
        problems.append(f"css correct status {corrected['status']!r}")
    if not corrected["fidelity"] >= 1.0 - FIDELITY_ATOL:
        problems.append(f"css correct fidelity {corrected['fidelity']}")
    expect = op.expect
    if (corrected["xCorrection"], corrected["zCorrection"]) != (expect["e1"], expect["e2"]):
        problems.append("css correct corrections differ from the injected errors")
    if distilled["keysMatch"] is not True:
        problems.append("distilled keys differ")
    if (distilled["bitCorrection"], distilled["phaseCorrection"]) != (expect["f1"], expect["f2"]):
        problems.append("distill corrections differ from the injected errors")
    return problems, len(distilled["aliceKey"]) if distilled["keysMatch"] is True else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("std-eve", _std_op, lambda: _std_check, trace_ops=10),
        Workload("sp-h15", _sp_op, lambda: partial(_sp_check, H15Reference()), trace_ops=20),
        Workload("css-distill", _css_op, lambda: _css_check, trace_ops=40),
    )
}
