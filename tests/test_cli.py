import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdforge import cli, css
from qkdforge.cli import main
from qkdforge.codes import code_from_parts, named_code
from qkdforge.gf2 import BitMatrix
from qkdforge.verify import report_json, run_all_checks


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_codes_table(self, capsys):
        code, out, _ = run_cli(capsys, ["codes", "table", "hamming74", "--t", "1"])
        assert code == 0
        payload = json.loads(out)
        entries = payload["output"]["entries"]
        assert len(entries) == 8
        assert entries["110"] == "1000000"

    def test_codes_info(self, capsys):
        code, out, _ = run_cli(capsys, ["codes", "info", "parity4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["output"]["d"] == 2
        assert payload["output"]["check"] == ["1111"]
        assert 0 <= payload["elapsedMs"] < 10_000

    def test_elapsed_ms_ignores_a_wall_clock_step(self, capsys, monkeypatch):
        # The wall clock steps back 990 s mid-command (NTP, a manual change).
        readings = iter([1000.0, 10.0])
        monkeypatch.setattr(time, "time", lambda: next(readings, 10.0))
        code, out, _ = run_cli(capsys, ["codes", "info", "parity4"])
        assert code == 0
        assert 0 <= json.loads(out)["elapsedMs"] < 10_000

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["qkdforge", "codes", "info", "parity4"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["config"] == {"code": "parity4", "t": None}

    def test_code_from_matrix_file(self, capsys, tmp_path):
        matrix = tmp_path / "gen.txt"
        matrix.write_text("111\n")
        code, out, _ = run_cli(capsys, ["codes", "info", str(matrix)])
        assert code == 0
        assert json.loads(out)["output"]["d"] == 3

    def test_empty_argv_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["teleport"])
        assert excinfo.value.code == 2

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, ["codes", "info", "golay23"])
        assert code == 1
        assert "unknown code" in err

    def test_bb84_run_shor_preskill(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bb84", "run", "--mode", "shor-preskill", "--c1", "hamming74",
             "--seed", "7"],
        )
        assert code == 0
        payload = json.loads(out)
        transcript = payload["output"]
        assert transcript["aborted"] is False
        assert transcript["key"] in ("0", "1")
        assert transcript["keysMatch"] is True

    def test_bb84_reproducible_output(self, capsys):
        argv = ["bb84", "run", "--mode", "standard", "--n", "10", "--seed", "3"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        out1 = json.loads(first)
        out2 = json.loads(second)
        assert out1["output"] == out2["output"]

    def test_bb84_run_rejects_csv(self, capsys):
        code, _, err = run_cli(
            capsys, ["bb84", "run", "--n", "8", "--format", "csv"]
        )
        assert code == 2
        assert "sweep" in err

    def test_bb84_sweep_csv(self, capsys):
        argv = [
            "bb84", "sweep", "--mode", "shor-preskill", "--c1", "hamming74",
            "--seed", "0", "--runs", "5", "--format", "csv",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "seed,qber,sifted_len,aborted,key,keys_match"
        assert len(lines) == 6
        _, again, _ = run_cli(capsys, argv)
        assert out == again

    def test_bb84_sweep_rejects_json(self, capsys):
        code, out, err = run_cli(
            capsys, ["bb84", "sweep", "--format", "json", "--runs", "2", "--n", "4"]
        )
        assert (code, out) == (2, "")
        assert err == "error: json output applies to 'bb84 run' only\n"

    def test_bb84_sweep_reads_the_code_file_once(self, capsys, tmp_path, monkeypatch):
        matrix = tmp_path / "gen.txt"
        matrix.write_text("\n".join(str(r) for r in named_code("hamming74").G.rows) + "\n")
        reads = []
        read_code_file = cli._read_code_file

        def counting(path):
            reads.append(path)
            return read_code_file(path)

        monkeypatch.setattr(cli, "_read_code_file", counting)
        common = ["--mode", "shor-preskill", "--c1", str(matrix), "--px", "0.05"]
        code, out, _ = run_cli(capsys, ["bb84", "sweep", *common, "--seed", "3", "--runs", "4"])
        assert code == 0 and reads == [str(matrix)]
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        for seed, row in zip(range(3, 7), rows):
            _, report, _ = run_cli(capsys, ["bb84", "run", *common, "--seed", str(seed)])
            t = json.loads(report)["output"]
            qber = f"{t['mismatches'] / len(t['checkIdx']):.6f}" if t["checkIdx"] else ""
            match = "" if t["keysMatch"] is None else str(t["keysMatch"]).lower()
            aborted = str(t["aborted"]).lower()
            assert row == f"{seed},{qber},{len(t['sifted'])},{aborted},{t['key'] or ''},{match}"

    def test_qec_demo(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["qec", "demo", "--code", "shor", "--error", "XZ", "--qubit", "5",
             "--seed", "1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert payload["output"]["syndromeOutcome"]["phaseBlock"] == 2

    @pytest.mark.parametrize("code_name, error, qubit, correction", [
        ("bitflip", None, "2", "X2"),
        ("bitflip", "X", "3", "X3"),
        ("phaseflip", None, "2", "Z2"),
        ("phaseflip", "Z", "1", "Z1"),
        ("bitflip", "none", "2", None),
        ("shor", None, "4", {"x": [4], "zBlock": None}),
    ])
    def test_qec_demo_corrects_the_error_it_injects(
        self, capsys, code_name, error, qubit, correction
    ):
        argv = ["qec", "demo", "--code", code_name, "--qubit", qubit, "--seed", "1"]
        code, out, _ = run_cli(capsys, argv + (["--error", error] if error else []))
        assert code == 0
        payload = json.loads(out)
        default = "Z" if code_name == "phaseflip" else "X"
        assert payload["config"]["error"] == (error or default)
        assert payload["output"]["correction"] == correction
        assert payload["output"]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("code_name, error", [
        ("bitflip", "Z"), ("bitflip", "XZ"), ("phaseflip", "X"), ("phaseflip", "XZ"),
    ])
    def test_qec_demo_injects_the_named_error(self, capsys, code_name, error):
        """A repetition code corrects one kind of flip: the other kind is
        injected as named, reported, and left in the state, so the
        fidelity with the clean codeword is |0.6^2 - 0.8^2| = 0.28."""
        argv = ["qec", "demo", "--code", code_name, "--error", error, "--qubit", "2",
                "--seed", "1"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["error"] == error
        gate = "Z" if code_name == "phaseflip" else "X"
        assert payload["output"]["correction"] == (f"{gate}2" if gate in error else None)
        assert payload["output"]["fidelity"] == pytest.approx(0.28, abs=1e-9)

    @pytest.mark.parametrize("code_name", ["bitflip", "phaseflip"])
    def test_qec_demo_random_error_on_a_repetition_code(self, capsys, code_name):
        argv = ["qec", "demo", "--code", code_name, "--error", "random", "--seed", "3"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["error"] == "random"
        assert payload["output"]["fidelity"] < 1.0 - 1e-9
        _, again, _ = run_cli(capsys, argv)
        assert without_elapsed(again) == without_elapsed(out)

    def test_css_correct(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["css", "correct", "--c1", "hamming74", "--c2", "dual",
             "--e1", "0001000", "--e2", "0100000", "--seed", "2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output"]["status"] == "ok"
        assert payload["output"]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_css_build_and_encode(self, capsys):
        code, out, _ = run_cli(capsys, ["css", "build", "--c1", "parity4", "--c2", "dual"])
        assert code == 0
        built = json.loads(out)["output"]
        assert built["k"] == 2 and built["h1"] == ["1111"]
        code, out, _ = run_cli(
            capsys,
            ["css", "encode", "--c1", "parity4", "--c2", "dual", "--v", "0011"],
        )
        assert code == 0
        amplitudes = json.loads(out)["output"]["amplitudes"]
        assert set(amplitudes) == {"0011", "1100"}

    def test_css_inject_reports_syndromes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["css", "inject", "--c1", "hamming74", "--c2", "dual",
             "--e1", "0000100", "--seed", "4"],
        )
        assert code == 0
        payload = json.loads(out)["output"]
        assert payload["bitSyndrome"] == "100"
        assert payload["phaseSyndrome"] == "000"

    def test_css_verify(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["css", "verify", "--c1", "parity4", "--c2", "dual",
             "--x-set", "0000,0001", "--z-set", "0000,0001"],
        )
        assert code == 0
        assert json.loads(out)["output"]["states"] == 16

    @pytest.mark.parametrize("argv, states", [
        (["css", "verify"], 128),
        (["css", "verify", "--c1", "parity4"], 16),
        (["css", "verify", "--z-set", "0000000,1000000,0100000,0010000,"
                                      "0001000,0000100,0000010,0000001"], 128),
    ])
    def test_css_verify_sets_default_to_the_code_pair(self, capsys, argv, states):
        """Omitted --x-set/--z-set hold one word per coset of C1 and of
        C2-dual, so every code pair spans its full 2^n space."""
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        report = json.loads(out)["output"]
        assert report["states"] == states
        assert max(report["orthonormalityDeviation"], report["completenessDeviation"]) <= 1e-9

    def test_distill(self, capsys):
        argv = ["distill", "--code", "hamming74", "--e1", "0010000",
                "--e2", "0000010", "--seed", "5"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["output"]["keysMatch"] is True
        assert payload["output"]["bitCorrection"] == "0010000"
        _, again, _ = run_cli(capsys, argv)
        assert json.loads(again)["output"] == payload["output"]

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QKDFORGE_SEED", "123")
        code, out, _ = run_cli(capsys, ["distill"])
        assert code == 0 and json.loads(out)["seed"] == 123


def assert_domain_error(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def assert_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


class TestBoundaries:
    @pytest.mark.parametrize("delta", ["inf", "nan", "-inf"])
    def test_bb84_non_finite_delta(self, capsys, delta):
        assert_domain_error(capsys, ["bb84", "run", f"--delta={delta}"], "delta must be finite")

    @pytest.mark.parametrize("action", ["run", "sweep"])
    def test_bb84_overflowing_delta(self, capsys, action):
        # Finite, but (4 + delta) * n overflows to inf.
        assert_domain_error(capsys, ["bb84", action, "--delta", "1e308"], "raw block")

    def test_wrong_length_css_verify_entry(self, capsys):
        assert_domain_error(
            capsys, ["css", "verify", "--c1", "parity4", "--c2", "dual", "--x-set", "0000,001"],
            "word length must be n=4, got 3",
        )

    def test_bb84_size_limit(self, capsys):
        assert_domain_error(capsys, ["bb84", "run", "--n", "100000000"], "n must be between")

    @pytest.mark.parametrize("c2, message", [
        ("hamming74", "proper subcode"),
        ("parity4", "same length"),
    ])
    def test_shor_preskill_pair_rejected_before_transport(self, capsys, monkeypatch, c2, message):
        import qkdforge.bb84 as bb84_module

        def no_transport(*args):
            raise AssertionError("transport ran before the code pair was checked")

        monkeypatch.setattr(bb84_module, "_transport", no_transport)
        argv = ["bb84", "run", "--mode", "shor-preskill", "--c1", "hamming74", "--c2", c2]
        assert_domain_error(capsys, argv, message)

    @pytest.mark.parametrize("argv", [
        ["css", "correct", "--e1", "0101"],
        ["css", "correct", "--e2", "00000001"],
        ["css", "inject", "--e2", "11"],
        ["distill", "--e1", "01"],
    ])
    def test_error_pattern_length(self, capsys, argv):
        assert_domain_error(capsys, argv, "error vectors must have length n=7")

    @pytest.mark.parametrize("e1, e2", [("1000", "0000"), ("0000", "1000")])
    def test_distill_uncorrectable_syndrome(self, capsys, e1, e2):
        argv = ["distill", "--code", "parity4", "--e1", e1, "--e2", e2, "--seed", "4"]
        assert_domain_error(capsys, argv, "uncorrectable syndrome")

    @pytest.mark.parametrize("argv", [
        ["codes", "table", "hamming74", "--t", "-1"],
        ["css", "correct", "--t", "-1"],
        ["css", "build", "--t", "-2"],
    ])
    def test_negative_t_rejected(self, capsys, argv):
        assert_domain_error(capsys, argv, "t_max must be nonnegative")

    @pytest.mark.parametrize("argv, message", [
        (["css", "correct", "--x", "01"], "shift x must have length n=7"),
        (["css", "encode", "--x", "00000001"], "shift x must have length n=7"),
        (["css", "correct", "--z", "0101"], "phase pattern z must have length n=7"),
        (["css", "inject", "--z", "0"], "phase pattern z must have length n=7"),
        (["css", "correct", "--v", "111"], "coset representative v must have length n=7"),
        (["css", "encode", "--c1", "parity4", "--v", "001"],
         "coset representative v must have length n=4"),
    ])
    def test_bit_string_length(self, capsys, argv, message):
        assert_domain_error(capsys, argv, message)

    @pytest.mark.parametrize("action", ["info", "table"])
    def test_directory_as_code_file(self, capsys, tmp_path, action):
        assert_domain_error(capsys, ["codes", action, str(tmp_path)], "cannot read code file")

    def test_unreadable_code_file(self, capsys, tmp_path, monkeypatch):
        # Permission bits do not stop a superuser, so the open itself fails.
        matrix = tmp_path / "gen.txt"
        matrix.write_text("111\n")
        os_open = os.open

        def denied(path, *args, **kwargs):
            if path == str(matrix):
                raise PermissionError(13, "Permission denied", path)
            return os_open(path, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", denied)
        argv = ["bb84", "run", "--mode", "shor-preskill", "--c1", str(matrix)]
        assert_domain_error(capsys, argv, "Permission denied")

    def test_name_the_os_refuses_is_a_domain_error(self, capsys):
        # ENAMETOOLONG names no missing file: the open failed, so it is unreadable.
        name = "a" * 300
        message = f"cannot read code file {name!r}: File name too long"
        assert_domain_error(capsys, ["codes", "info", name], message)

    @pytest.mark.parametrize("name", ["{missing}", "{file}/gen.txt", "{loop}", "a\0b"])
    def test_paths_that_name_no_file_are_unknown_codes(self, capsys, tmp_path, name):
        (tmp_path / "file").write_text("111\n")
        os.symlink(tmp_path / "loop", tmp_path / "loop")
        name = name.format(missing=tmp_path / "nosuch", file=tmp_path / "file", loop=tmp_path / "loop")
        assert_domain_error(capsys, ["codes", "info", name], f"unknown code {name!r}")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_code_file_stops_at_the_limit(self):
        """A code file is read up to cli.CODE_FILE_LIMIT + 1 bytes, so
        /dev/zero ends in an error line, not a MemoryError traceback, even
        with the address space capped at 1 GiB."""
        import resource  # Unix only, as /dev/zero is

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        done = subprocess.run(
            [sys.executable, "-m", "qkdforge.cli", "codes", "info", "/dev/zero"],
            env=source_env(), capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        )
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr == (
            f"error: code file '/dev/zero' is over the {cli.CODE_FILE_LIMIT}-byte limit\n"
        )

    @pytest.mark.parametrize("runs", ["-1", "0"])
    def test_sweep_runs_must_be_positive(self, capsys, runs):
        assert_usage_error(capsys, ["bb84", "sweep", "--runs", runs], "--runs")

    def test_bad_seed_variable_spares_seedless_subcommands(self, capsys, monkeypatch):
        monkeypatch.setenv("QKDFORGE_SEED", "abc")
        code, out, _ = run_cli(capsys, ["codes", "info", "parity4"])
        assert code == 0 and json.loads(out)["seed"] is None
        code, out, _ = run_cli(capsys, ["bb84", "run", "--n", "3", "--seed", "4"])
        assert code == 0 and json.loads(out)["seed"] == 4

    def test_bad_seed_variable_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QKDFORGE_SEED", "abc")
        assert_usage_error(capsys, ["distill"], "QKDFORGE_SEED")
        assert_usage_error(capsys, ["bb84", "run", "--n", "3"], "QKDFORGE_SEED")

    @pytest.mark.parametrize("argv", [
        ["css", "build"],
        ["css", "encode", "--c1", "parity4", "--v", "0011"],
        ["css", "verify", "--c1", "parity4"],
    ])
    def test_bad_seed_variable_spares_seedless_css_actions(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("QKDFORGE_SEED", "abc")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and json.loads(out)["seed"] is None

    @pytest.mark.parametrize("action", ["inject", "correct"])
    def test_bad_seed_variable_fails_css_actions_that_draw(self, capsys, monkeypatch, action):
        monkeypatch.setenv("QKDFORGE_SEED", "abc")
        assert_usage_error(capsys, ["css", action], "QKDFORGE_SEED")
        monkeypatch.setenv("QKDFORGE_SEED", "9")
        code, out, _ = run_cli(capsys, ["css", action])
        assert code == 0 and json.loads(out)["seed"] == 9

    @pytest.mark.parametrize("argv, message", [
        (["css", "encode", "--v", ""], "coset representative v must have length n=7"),
        (["css", "correct", "--x", ""], "shift x must have length n=7"),
        (["css", "inject", "--z="], "phase pattern z must have length n=7"),
        (["css", "correct", "--e1", ""], "error vectors must have length n=7"),
        (["css", "inject", "--e2", ""], "error vectors must have length n=7"),
        (["distill", "--e1", ""], "error vectors must have length n=7"),
        (["distill", "--e2="], "error vectors must have length n=7"),
    ])
    def test_empty_bit_string_is_not_absent(self, capsys, argv, message):
        """An empty bit string is a value of length 0, not the all-zeros default."""
        assert_domain_error(capsys, argv, message)

    @pytest.mark.parametrize("argv", [
        ["css", "encode", "--v", "01x"],
        ["css", "correct", "--x", "2"],
        ["distill", "--e1", "0000000x"],
    ])
    def test_non_binary_bit_string_is_named_before_its_length(self, capsys, argv):
        """A value that is neither binary nor n long reports its characters."""
        assert_domain_error(capsys, argv, "BitVector entries must be 0 or 1, got ")

    @pytest.mark.parametrize("argv", [
        ["bb84", "run", "--seed", "-5"],
        ["bb84", "sweep", "--seed=-1"],
        ["distill", "--seed", "-1"],
        ["qec", "demo", "--seed", "-2"],
        ["css", "correct", "--seed", "-3"],
    ])
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        assert_usage_error(capsys, argv, "argument --seed: invalid seed '-")

    @pytest.mark.parametrize("argv", [["distill"], ["bb84", "run", "--n", "3"], ["css", "inject"]])
    def test_negative_seed_variable_is_a_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("QKDFORGE_SEED", "-1")
        assert_usage_error(capsys, argv, "invalid seed '-1'")

    @pytest.mark.parametrize("argv", [
        ["codes", "info", ""],
        ["codes", "table", ""],
        ["css", "build", "--c1", ""],
        ["css", "build", "--c2", ""],
        ["distill", "--code", ""],
        ["bb84", "run", "--mode", "shor-preskill", "--c1", ""],
    ])
    def test_empty_code_argument_is_an_unknown_code(self, capsys, argv):
        """Path('') is the working directory; an empty name is no code file."""
        assert_domain_error(capsys, argv, "unknown code ''")


def without_elapsed(stdout):
    """A report's stdout less elapsedMs, the one field that varies by run."""
    return re.sub(r'"elapsedMs": [-+0-9.eE]+(, )?', "", stdout)


class TestInProcessReuse:
    """The parser, named codes and matrix-file codes are built once per
    process; none of that may leak from one call into the next."""

    def test_rewritten_matrix_file_is_read_again(self, capsys, tmp_path):
        matrix = tmp_path / "gen.txt"
        matrix.write_text("111\n")
        _, first, _ = run_cli(capsys, ["codes", "info", str(matrix)])
        matrix.write_text("1001\n0101\n0011\n")
        code, second, _ = run_cli(capsys, ["codes", "info", str(matrix)])
        assert code == 0
        assert json.loads(first)["output"]["generator"] == ["111"]
        output = json.loads(second)["output"]
        assert (output["n"], output["k"], output["d"]) == (4, 3, 2)
        assert output["generator"] == ["1001", "0101", "0011"]

    def test_same_size_rewrite_is_read_again(self, capsys, tmp_path):
        # Written within one timestamp tick: a cache keyed by size and
        # mtime would miss the second text.
        matrix = tmp_path / "gen.txt"
        matrix.write_text("111\n")
        _, first, _ = run_cli(capsys, ["codes", "info", str(matrix)])
        matrix.write_text("110\n")
        code, second, _ = run_cli(capsys, ["codes", "info", str(matrix)])
        assert code == 0
        assert json.loads(first)["output"]["generator"] == ["111"]
        assert json.loads(second)["output"]["generator"] == ["110"]

    def test_crlf_file_is_the_same_code_as_its_lf_twin(self, capsys, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(b"1001\n0101\n0011\n")
        crlf.write_bytes(b"1001\r\n0101\r\n0011\r\n")
        outputs = []
        for matrix in (lf, crlf):
            code, out, _ = run_cli(capsys, ["codes", "info", str(matrix)])
            assert code == 0
            outputs.append(json.loads(out)["output"])
        assert outputs[0] == outputs[1]
        assert outputs[0]["generator"] == ["1001", "0101", "0011"]

    def test_seed_variable_is_read_on_every_call(self, capsys, monkeypatch):
        reports = []
        for seed in ("1", "2"):
            monkeypatch.setenv("QKDFORGE_SEED", seed)
            code, out, _ = run_cli(capsys, ["distill"])
            assert code == 0
            reports.append(json.loads(out))
        assert [r["seed"] for r in reports] == [1, 2]
        assert reports[0]["output"] != reports[1]["output"]

    @pytest.mark.parametrize("bad", [
        ["bb84", "run", "--n", "seven"],
        ["bb84", "fly"],
        ["css", "build", "--t", "one"],
        ["bb84", "run", "--format", "xml"],
    ])
    def test_usage_error_leaves_the_next_call_unchanged(self, capsys, bad):
        argv = ["bb84", "run", "--mode", "shor-preskill", "--px", "0.05", "--seed", "4"]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        assert_usage_error(capsys, bad, "usage:")
        code, again, _ = run_cli(capsys, argv)
        assert code == 0 and without_elapsed(again) == without_elapsed(first)

    def test_cached_named_code_survives_a_corrupted_registry(self):
        ham = named_code("hamming74")
        scrambled = code_from_parts(ham.G, BitMatrix((ham.H.rows[1], ham.H.rows[0], ham.H.rows[2])))
        failures = {r.name for r in run_all_checks({"hamming74": scrambled}) if not r.passed}
        assert "hamming74 single-error syndrome table" in failures
        again = named_code("hamming74")
        assert again is ham
        assert [str(r) for r in again.G.rows] == ["1000110", "0100111", "0010101", "0001011"]
        assert [str(r) for r in again.H.rows] == ["1110100", "1101010", "0111001"]
        assert all(r.passed for r in run_all_checks())


# Minor page faults per warm main(argv) call in a fresh process, after
# three calls that fault in the imports, caches and numpy's first arrays.
FAULT_SCRIPT = """
import io, json, resource, sys
from contextlib import redirect_stdout
from qkdforge import cli, css

def call(argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv

faults = {}
for argv in json.loads(sys.argv[1]):
    for _ in range(3):
        call(argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        call(argv)
    faults[" ".join(argv)] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
print(json.dumps(faults))
"""

FAULT_COMMANDS = [
    ["distill", "--code", "hamming74", "--e1", "0010000", "--e2", "0000010", "--seed", "3"],
    ["css", "correct", "--e1", "0010000", "--e2", "0000010", "--seed", "3"],
    ["bb84", "run", "--eve", "intercept", "--seed", "3"],
    ["bb84", "run", "--mode", "shor-preskill", "--seed", "3"],
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts minor faults on Linux")
def test_warm_calls_fault_in_no_pages():
    """A warm call reuses the memory of the last one under the allocator's
    defaults: fewer than one minor page fault per call, with no allocator
    setting anywhere in the process."""
    done = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT, json.dumps(FAULT_COMMANDS)], env=source_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout)
    assert len(faults) == len(FAULT_COMMANDS)
    assert all(count < 1 for count in faults.values()), faults


def source_env():
    """The environment with this source tree first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


# main(argv) in a fresh process, timed from after the imports; the time
# goes to stdout, which the failing calls below leave empty otherwise.
TIMED_MAIN = """
import sys, time
from qkdforge import cli, css
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def assert_closed_pipe_exits_quietly(argv):
    """argv in a fresh process whose stdout is a pipe with its read end
    closed: exit 1 within 30 s and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qkdforge.cli", *argv],
            env=source_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


@pytest.fixture
def forty_bit_codes(tmp_path):
    """[40, 2] with two disjoint weight-20 rows (d = 20, t = 9), and the
    [40, 1] all-ones code (d = 40, t = 19) inside it."""
    c1, c2 = tmp_path / "c40_2.txt", tmp_path / "c40_1.txt"
    c1.write_text("1" * 20 + "0" * 20 + "\n" + "0" * 20 + "1" * 20 + "\n")
    c2.write_text("1" * 40 + "\n")
    return str(c1), str(c2)


def unit_row_pair(tmp_path, k1, k2):
    """Code files for C1, the first k1 unit rows on 40 bits, and C2, its first k2."""
    rows = ["0" * i + "1" + "0" * (39 - i) + "\n" for i in range(k1)]
    c1, c2 = tmp_path / f"unit{k1}.txt", tmp_path / f"unit{k2}.txt"
    c1.write_text("".join(rows))
    c2.write_text("".join(rows[:k2]))
    return str(c1), str(c2)


class TestSizeBudgets:
    """Tables and basis checks that could not finish fail before any work:
    exit 1 with an error line, well inside a second."""

    # The [40, 1] code's own table at t = 19 is over the table budget; the
    # Shor-Preskill run builds the pair's CSS code, as `css build` does, and
    # stops at the dual of C2, whose 2^39 codewords are past enumeration.
    @pytest.mark.parametrize("argv", [
        ["codes", "table", "{c2}"],
        ["bb84", "run", "--mode", "shor-preskill", "--n", "40", "--c1", "{c1}", "--c2", "{c2}"],
    ])
    def test_oversized_syndrome_table_is_an_error(self, forty_bit_codes, argv):
        c1, c2 = forty_bit_codes
        argv = [a.format(c1=c1, c2=c2) for a in argv]
        done = subprocess.run(
            [sys.executable, "-c", TIMED_MAIN, *argv], env=source_env(), capture_output=True,
            text=True, timeout=10,
        )
        assert done.returncode == 1, done.stderr
        if argv[0] == "codes":
            assert done.stderr.startswith("error: a syndrome table") and "over the limit" in done.stderr
        else:
            assert done.stderr == (
                "error: cannot enumerate the 2^39 codewords of LinearCode[n=40, k=39]: "
                "k is over ENUMERATION_LIMIT=24\n"
            )
        assert float(done.stdout) < 1.0

    @pytest.mark.parametrize("action", ["encode", "inject", "correct"])
    def test_oversized_css_state_is_an_error(self, tmp_path, action):
        # C1 = the 23 unit rows on 40 bits, C2 = its first 22: a codeword
        # would be a support of 2^22 kets, four times the budget, refused
        # before C2 is enumerated.
        c1, c2 = unit_row_pair(tmp_path, 23, 22)
        done = subprocess.run(
            [sys.executable, "-c", TIMED_MAIN, "css", action, "--c1", c1, "--c2", c2],
            env=source_env(), capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr == (
            "error: 4194304 kets on 40 qubits are over the 1048576-amplitude budget\n"
        )
        assert float(done.stdout) < 1.0

    @pytest.mark.parametrize("action", ["inject", "correct"])
    def test_css_state_past_the_dense_read_is_refused_before_any_round(
        self, capsys, tmp_path, monkeypatch, action
    ):
        # C1 = 20 unit rows on 40 bits, C2 = its first 18: a codeword is a
        # legal support of 2^18 kets, but the report's fidelity reads all
        # 2^40 amplitudes, so the action stops before its 20 + 18 rows.
        def no_rounds(*args):
            raise AssertionError("a syndrome round ran before the dense read was refused")

        monkeypatch.setattr(css, "measure_paulis", no_rounds)
        c1, c2 = unit_row_pair(tmp_path, 20, 18)
        assert run_cli(capsys, ["css", action, "--c1", c1, "--c2", c2]) == (
            1, "", "error: qubit count must be in 1..20, got 40\n")

    def test_oversized_css_verify_is_an_error(self, tmp_path):
        # [14, 13] parity with its dual: three 2^14 x 2^14 complex
        # matrices, 48 * 4^14 bytes (about 13 GB).
        c1 = tmp_path / "parity14.txt"
        c1.write_text("".join("0" * i + "1" + "0" * (12 - i) + "1\n" for i in range(13)))
        done = subprocess.run(
            [sys.executable, "-c", TIMED_MAIN, "css", "verify", "--c1", str(c1), "--c2", "dual"],
            env=source_env(), capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: verifying the basis of 14 qubits needs 12884901888")
        assert float(done.stdout) < 1.0

    def test_closed_pipe_prints_no_traceback(self, forty_bit_codes):
        assert_closed_pipe_exits_quietly(["codes", "info", forty_bit_codes[0]])

    def test_closed_pipe_stops_an_endless_sweep(self):
        # A sweep writes each row as its session ends, so the first full
        # stdout buffer meets the closed pipe, long before 10^8 sessions.
        assert_closed_pipe_exits_quietly(["bb84", "sweep", "--runs", "100000000"])


def test_qec_demo_without_qubit_injects_no_error(capsys):
    code, out, _ = run_cli(capsys, ["qec", "demo", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {"code": "bitflip", "qubit": 0, "error": "X"}
    assert payload["output"]["syndromeOutcome"] == 0
    assert payload["output"]["correction"] is None
    assert payload["output"]["fidelity"] == pytest.approx(1.0, abs=1e-12)


class TestVerifyBattery:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == len(run_all_checks())

    def test_json_report_deterministic(self):
        first = report_json(run_all_checks())
        second = report_json(run_all_checks())
        assert first == second
        payload = json.loads(first)
        assert payload["failed"] == 0

    def test_corrupted_code_fails_named_checks(self):
        # Swap two check-matrix rows: the code is equivalent but every
        # frozen table derived from the printed layout no longer matches.
        ham = named_code("hamming74")
        scrambled = code_from_parts(
            ham.G,
            BitMatrix((ham.H.rows[1], ham.H.rows[0], ham.H.rows[2])),
        )
        results = run_all_checks({"hamming74": scrambled})
        failures = {r.name for r in results if not r.passed}
        assert "hamming74 single-error syndrome table" in failures
        assert "hamming-pair syndromes and combined correction" in failures
        # Independent checks stay green.
        passing = {r.name for r in results if r.passed}
        assert "parity4 codeword and dual listings" in passing
        assert "information bound values" in passing

    def test_verify_cli_reports_failures(self, capsys, monkeypatch):
        import qkdforge.verify as verify_module

        def broken(codes):
            return False, "injected failure"

        monkeypatch.setattr(
            verify_module,
            "CHECKS",
            (("synthetic broken check", broken),),
        )
        code, out, err = run_cli(capsys, ["verify"])
        assert code == 1
        assert "FAIL synthetic broken check" in out
        assert "1 of 1 checks failed" in err


# --- CLI grammar fuzz ---------------------------------------------------------

# Each choice list is (valid values, invalid values).
INTS = (["0", "1", "2"], ["-1", "nan", "inf", "", "1.5", "x"])
FLOATS = (["0", "0.05", "0.25", "1"], ["1.5", "-0.1", "nan", "inf", "-inf", "", "x"])
SEEDS = (["0", "3", "41"], ["-5", "-1", "nan", "inf", "", "1e3", "x"])
BITS = (["0000000", "0001000", "0100000", "1111111"],
        ["", "0", "11", "0000", "1000", "00000001", "01x0000", "-1", "nan"])
SETS = (["0000000,1000000", "0000000"], ["0000,0001", "", ",", "01,0", "0000,x"])
CSV_HEADER = "seed,qber,sifted_len,aborted,key,keys_match"
EXTRA_TOKENS = ["--", "stray", "-h", "--help", "--he", "-x", "--bogus", "7"]


@pytest.fixture(scope="module")
def code_args(tmp_path_factory):
    """Code arguments as (valid, invalid): the names, 'dual' and a matrix
    file; the empty string, an unknown name, malformed matrix files, a
    missing file and a directory."""
    root = tmp_path_factory.mktemp("codes")
    files = {"rep3.txt": "111\n", "ragged.txt": "101\n11\n", "letters.txt": "10x\n"}
    for name, text in files.items():
        (root / name).write_text(text)
    return (
        ["hamming74", "parity4", "rep3", "dual", str(root / "rep3.txt")],
        ["", "golay23", str(root / "ragged.txt"), str(root / "letters.txt"),
         str(root / "missing.txt"), str(root)],
    )


def grammar(codes):
    """subcommand -> (choices for each positional, choices for each flag).
    bb84 keeps n <= 50 and runs <= 3, so no drawn call is slow."""
    seeded = {"--seed": SEEDS}
    return {
        "codes": ([(["info", "table"], ["list"]), codes], {"--t": INTS}),
        "qec": ([(["demo"], ["run"])], {
            "--code": (["bitflip", "phaseflip", "shor"], ["steane"]),
            "--qubit": (["0", "1", "3", "9"], ["10", "-1", "nan", ""]),
            "--error": (["none", "X", "Z", "XZ", "random"], ["Y"]),
            **seeded,
        }),
        "css": ([(["build", "encode", "inject", "correct", "verify"], ["decode"])], {
            "--c1": codes, "--c2": codes, "--t": INTS,
            **{flag: BITS for flag in ("--v", "--x", "--z", "--e1", "--e2")},
            "--x-set": SETS, "--z-set": SETS, **seeded,
        }),
        "distill": ([], {"--code": codes, "--e1": BITS, "--e2": BITS, **seeded}),
        "bb84": ([(["run", "sweep"], ["fly"])], {
            "--mode": (["standard", "shor-preskill"], ["b92"]),
            "--n": (["1", "7", "20", "50"], ["0", "-3", "nan", "inf", "", "100000000"]),
            "--delta": FLOATS, "--t-abort": INTS,
            "--eve": (["none", "intercept"], ["pns"]),
            "--eve-basis": (["uniform_random", "always_Z", "always_X"], ["always_Y"]),
            "--px": FLOATS, "--pz": FLOATS, "--c1": codes, "--c2": codes,
            "--runs": (["1", "3"], ["0", "-1", "nan", ""]),
            "--format": (["json", "csv"], ["xml"]), **seeded,
        }),
        "verify": ([], {"--format": (["text", "json"], ["xml"])}),
    }


def pick(draw, choices, broken):
    valid, invalid = choices
    return draw(st.sampled_from(valid + invalid if broken else valid))


@st.composite
def flag_tokens(draw, flag, choices, others, broken):
    """One option as --flag value, --flag=value or an abbreviation of the
    flag; a broken one may also be ambiguous or lack its value."""
    value = pick(draw, choices, broken)
    prefixes = [flag[:k] for k in range(3, len(flag) + 1)]
    if not broken:
        prefixes = [p for p in prefixes if p == flag or not any(o.startswith(p) for o in others)]
    form = draw(st.sampled_from(["split", "joined", "bare"] if broken else ["split", "joined"]))
    name = draw(st.sampled_from(prefixes))
    if form == "joined":
        return [f"{name}={value}"]
    return [name] if form == "bare" else [name, value]


@st.composite
def argvs(draw, codes):
    """An argv for a valid call, which may still fail on its values, or
    (as often) a broken one: wrong values, missing or stray tokens,
    help requests, unknown subcommands or none at all."""
    table = grammar(codes)
    broken = draw(st.booleans())
    head = draw(st.sampled_from(
        [*table, "teleport", "", "-h", "--", "--bogus", None] if broken else list(table)))
    if head is None:
        return []
    if head not in table:
        return [head, *draw(st.lists(st.sampled_from([*table, *EXTRA_TOKENS]), max_size=2))]
    positionals, flags = table[head]
    argv = [pick(draw, choices, broken) for choices in positionals]
    if broken:
        argv = argv[:draw(st.integers(0, len(argv)))]
    others = [*flags, "--help"]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        argv += draw(flag_tokens(flag, flags[flag], [o for o in others if o != flag], broken))
    for token in draw(st.lists(st.sampled_from(EXTRA_TOKENS), max_size=2 if broken else 0)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return [head, *argv]


# The battery's report is fixed, so the fuzz runs it once, not per call.
VERIFY_ONCE = functools.cache(run_all_checks)


def reference_main(argv):
    """main with one top-level parse_args over the whole argv: the oracle
    that subcommand dispatch must match."""
    with mock.patch.object(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv)):
        return main(argv)


def call(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    return code, without_elapsed(out.getvalue()), err.getvalue()


class TestGrammarFuzz:
    """argv drawn from the CLI grammar, valid or not. Dispatching straight
    to the subcommand's parser must behave as the top-level parse does,
    byte for byte, and every call must end in a clean exit code."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data(), env_seed=st.sampled_from([None, "7", "-1", "abc", ""]))
    def test_dispatch_matches_the_top_level_parse(self, code_args, data, env_seed):
        argv = data.draw(argvs(code_args), label="argv")
        with mock.patch.dict(os.environ):
            os.environ.pop(cli.ENV_SEED, None)
            if env_seed is not None:
                os.environ[cli.ENV_SEED] = env_seed
            with mock.patch.object(cli, "run_all_checks", VERIFY_ONCE):
                code, out, err = call(main, argv)
                assert (code, out, err) == call(reference_main, argv)
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ")
        if code != 0:
            return
        if out.startswith("usage: qkdforge"):
            assert any(token.startswith(("-h", "--h")) for token in argv)
        elif out.startswith(CSV_HEADER + "\n"):
            assert argv[0] == "bb84"
        elif out.startswith("PASS "):
            assert argv[0] == "verify" and "FAIL" not in out
        else:
            assert isinstance(json.loads(out), dict)
