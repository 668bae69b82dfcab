"""Tests of the benchmark's own checks and trace arithmetic.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qkdforge import cli  # noqa: E402
from qkdforge.codes import code_from_generator  # noqa: E402
from qkdforge.gf2 import parse_matrix_text  # noqa: E402

from run import OpResult, Tally, run_op  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS, op_rng, write_h15  # noqa: E402


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_h15()
    return tmp_path


def keyed_op(name: str):
    """The first op at seed 0 whose session derives a key, with its reports."""
    workload = WORKLOADS[name]
    check = workload.checker()
    for index in range(20):
        op = workload.make_op(op_rng(0, index))
        result = run_op(cli, op, check)
        assert result.problems == []
        reports = [json.loads(text) for text in result.stdout]
        if not reports[0]["output"]["aborted"]:
            return check, op, reports
    raise AssertionError("no keyed session in 20 ops")


def counted_failed(check, op, reports) -> bool:
    tally = Tally()
    problems, _ = check(op, reports)
    tally.add(OpResult(seconds=0.0, problems=problems), "test op")
    return tally.failed == 1


@pytest.mark.parametrize("name", ["std-eve", "sp-h15"])
def test_flipped_bob_bit_counts_as_failed(workdir, name):
    check, op, reports = keyed_op(name)
    assert not counted_failed(check, op, reports)
    out = reports[0]["output"]
    i = out["checkIdx"][0]
    bits = out["bobBits"]
    out["bobBits"] = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1:]
    assert counted_failed(check, op, reports)


def test_altered_u_hat_counts_as_failed(workdir):
    check, op, reports = keyed_op("sp-h15")
    out = reports[0]["output"]
    out["uHat"] = ("1" if out["uHat"][0] == "0" else "0") + out["uHat"][1:]
    assert counted_failed(check, op, reports)


def test_css_distill_ops_pass_their_checks(workdir):
    workload = WORKLOADS["css-distill"]
    check = workload.checker()
    for index in range(5):
        assert run_op(cli, workload.make_op(op_rng(0, index)), check).problems == []


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 2),
        ("a", 20.0, 22.0, -1),
    ]
    totals = self_times(spans)
    assert totals == {
        "a": [2, pytest.approx(3.0 + 2.0)],
        "b": [1, pytest.approx(3.0)],
        "c": [1, pytest.approx(3.0)],
        "d": [1, pytest.approx(1.0)],
    }


def test_h15_matrix_is_the_hamming_code_with_nested_dual(workdir):
    c1 = code_from_generator(parse_matrix_text(Path("bench/_work/h15.txt").read_text()))
    assert (c1.n, c1.k, c1.distance) == (15, 11, 3)
    c2 = c1.dual()
    assert c2.k == 4
    assert all(c1.contains(row) for row in c2.G.rows)
