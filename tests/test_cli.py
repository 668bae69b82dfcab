import json

import pytest

from qkdforge.cli import build_parser, main
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
        parser = build_parser()
        args = parser.parse_args(["distill"])
        assert args.seed == 123


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
