"""Spans around the public functions of each qkdforge layer, recorded from
outside the program.

`Tracer.install()` replaces every public module-level function of the
layer modules with a wrapper that records a span (name, start, end,
parent index). The package imports by name (`from .qsim import
apply_gate`), so each wrapper is bound into every qkdforge module that
holds the original. Two methods get spans too (`LinearCode.encode` and
the function behind the cached `LinearCode.weights`, not the codeword
generator), and the constructors of `BitVector` and `StateVector` are
counted without being timed. `uninstall()` puts every original back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from typing import Callable, Iterable, Optional

LAYERS = ("cli", "bb84", "qsim", "gf2", "codes", "css", "distill")

# (name, start, end, index of the parent span or -1)
Span = tuple[str, float, float, int]

Hook = Callable[[Counter, tuple, object], None]


def self_times(spans: Iterable[Span]) -> dict[str, list]:
    """name -> [calls, self seconds], where a span's self time is its
    duration minus the part of it that its direct children cover."""
    spans = list(spans)
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    totals: dict[str, list] = {}
    for (name, start, end, _), child in zip(spans, covered):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child
    return totals


def _amp_bytes(counts: Counter, args: tuple, result: object) -> None:
    # A dense state of n qubits holds 2^n complex128 amplitudes.
    counts["qsim.amp_bytes"] += 16 * 2 ** args[0].n


def _session(counts: Counter, args: tuple, transcript) -> None:
    counts["bb84.sessions"] += 1
    counts["bb84.keyed"] += not transcript.aborted
    counts["bb84.raw"] += len(transcript.b)
    counts["bb84.sifted"] += len(transcript.sifted)


def _decoded(counts: Counter, args: tuple, result) -> None:
    counts["codes.decode.ok"] += result.status == "ok"


def _distilled(counts: Counter, args: tuple, result) -> None:
    alice_key, bob_key, _ = result
    counts["distill.sessions"] += 1
    counts["distill.keys_match"] += alice_key == bob_key


HOOKS: dict[str, Hook] = {
    "qsim.apply_gate": _amp_bytes,
    "qsim.measure_all_z": _amp_bytes,
    "qsim.measure_pauli_observable": _amp_bytes,
    "bb84.run_session": _session,
    "codes.decode": _decoded,
    "distill.run_distillation": _distilled,
}


class Tracer:
    def __init__(self) -> None:
        from qkdforge import codes, gf2, qsim

        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # (owner, attribute, original, replacement)
        self._patches: list[tuple[object, str, object, object]] = []

        modules = [m for name, m in sorted(sys.modules.items())
                   if name.split(".", 1)[0] == "qkdforge" and m is not None]
        for layer in LAYERS:
            module = sys.modules[f"qkdforge.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._span(name, fn, HOOKS.get(name))
                for owner in modules:
                    for bound, value in vars(owner).items():
                        if value is fn:
                            self._patches.append((owner, bound, fn, wrapper))

        encode = codes.LinearCode.encode
        self._patches.append(
            (codes.LinearCode, "encode", encode, self._span("codes.encode", encode)))
        weights = codes.LinearCode.__dict__["weights"]
        self._patches.append(
            (weights, "func", weights.func, self._span("codes.weights", weights.func)))
        for cls, name in ((gf2.BitVector, "gf2.bitvector.created"),
                          (qsim.StateVector, "qsim.statevector.created")):
            self._patches.append((cls, "__post_init__", cls.__post_init__,
                                  self._counted(name, cls.__post_init__)))

    def _span(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def drain(self) -> tuple[dict[str, list], Counter]:
        """Self times and counts recorded since the last drain; clears both."""
        totals, counts = self_times(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        return totals, counts


# Per-layer metrics: self time summed over a group of spans, per op.
SELF_MS = {
    "bb84.transmit_qubit.self_ms": ["bb84.transmit_qubit"],
    # run_session dispatches to one of the two runners; all three are
    # the protocol's own steps (sift, select, check, PA report).
    "bb84.run_session.self_ms": ["bb84.run_session", "bb84.run_standard", "bb84.run_shor_preskill"],
    "bb84.shor_preskill_keys.self_ms": ["bb84.shor_preskill_keys"],
    "qsim.apply_gate.self_ms": ["qsim.apply_gate"],
    "qsim.basis_state.self_ms": ["qsim.basis_state"],
    "qsim.measure_all_z.self_ms": ["qsim.measure_all_z"],
    "qsim.measure_pauli_observable.self_ms": ["qsim.measure_pauli_observable"],
    "qsim.apply_pauli_string.self_ms": ["qsim.apply_pauli_string"],
    "gf2.mat_apply.self_ms": ["gf2.mat_apply"],
    "gf2.rref.self_ms": ["gf2.rref"],
    "gf2.solve_particular.self_ms": ["gf2.solve_particular"],
    # Code construction: named codes, generator files and dual() all end
    # in code_from_parts.
    "codes.code_from_generator.self_ms": [
        "codes.code_from_generator", "codes.code_from_parts", "codes.named_code"],
    "codes.weights.self_ms": ["codes.weights"],
    "codes.syndrome_table.self_ms": [
        "codes.build_syndrome_table", "codes.syndrome_table_from_check"],
    "codes.quotient.self_ms": ["codes.quotient"],
    "codes.decode.self_ms": ["codes.decode"],
    "codes.key_from_coset.self_ms": ["codes.key_from_coset"],
    "css.css_build.self_ms": ["css.css_build"],
    "css.css_codeword.self_ms": ["css.css_codeword"],
    "css.css_correct.self_ms": ["css.css_correct"],
    "distill.run_distillation.self_ms": ["distill.run_distillation"],
    "distill.create_epr.self_ms": ["distill.create_epr"],
    "distill.inject_bob_errors.self_ms": ["distill.inject_bob_errors"],
    # Argument parsing (including building the parser) and report emission.
    "cli.main.self_ms": ["cli.main", "cli.build_parser"],
}
CALLS = {
    "bb84.transmit_qubit.calls": "bb84.transmit_qubit",
    "qsim.apply_gate.calls": "qsim.apply_gate",
    "qsim.basis_state.calls": "qsim.basis_state",
    "qsim.measure_all_z.calls": "qsim.measure_all_z",
    "qsim.measure_pauli_observable.calls": "qsim.measure_pauli_observable",
    "gf2.mat_apply.calls": "gf2.mat_apply",
    "gf2.rref.calls": "gf2.rref",
    "gf2.solve_particular.calls": "gf2.solve_particular",
    "codes.encode.calls": "codes.encode",
    "codes.decode.calls": "codes.decode",
    "codes.key_from_coset.calls": "codes.key_from_coset",
}
COUNTS = ("qsim.statevector.created", "gf2.bitvector.created", "qsim.amp_bytes")
# A ratio whose base is 0 on a workload (the layer is not reached) reads 0.
RATIOS = {
    "bb84.sifted_ratio": ("bb84.sifted", "bb84.raw"),
    "bb84.key_ratio": ("bb84.keyed", "bb84.sessions"),
    "codes.decode.ok_ratio": ("codes.decode.ok", "codes.decode.calls"),
    "distill.keys_match_ratio": ("distill.keys_match", "distill.sessions"),
}
LAYER_SELF_MS = {f"{layer}.self_ms": layer for layer in LAYERS}

UNITS = {
    **{m: "ms/op" for m in SELF_MS},
    **{m: "count/op" for m in CALLS},
    **{m: "count/op" for m in COUNTS},
    "qsim.amp_bytes": "B/op",
    **{m: "ratio" for m in RATIOS},
    **{m: "ms/op" for m in LAYER_SELF_MS},
    "trace.overhead_ratio": "ratio",
}


def pass_counts(totals: dict[str, list], counts: Counter) -> dict[str, int]:
    """Everything a traced pass counted: calls per span name and the
    hook and constructor counters. Equal passes must give equal dicts."""
    out = {f"{name}.calls": entry[0] for name, entry in totals.items()}
    out.update(counts)
    return dict(sorted(out.items()))


def layer_metrics(
    totals: dict[str, list], counts: dict[str, int], ops: int, speed: float
) -> dict[str, float]:
    """Per-op per-layer metrics of one traced pass over `ops` ops; self
    times are multiplied by `speed` to bring them to the reference speed."""

    def self_ms(names: Iterable[str]) -> float:
        return sum(totals[n][1] for n in names if n in totals) * 1000.0 * speed / ops

    metrics = {m: self_ms(names) for m, names in SELF_MS.items()}
    metrics.update({m: counts.get(f"{n}.calls", 0) / ops for m, n in CALLS.items()})
    metrics.update({m: counts.get(m, 0) / ops for m in COUNTS})
    for m, (hit, base) in RATIOS.items():
        metrics[m] = counts.get(hit, 0) / counts[base] if counts.get(base) else 0.0
    for m, layer in LAYER_SELF_MS.items():
        metrics[m] = self_ms(n for n in totals if n.split(".", 1)[0] == layer)
    return metrics
