"""Golden transcripts: byte-for-byte locks on protocol and CLI output.

`golden_transcripts.json` holds the full `SessionTranscript.to_json()`
text of `run_session` over a grid of mode x eavesdropper x channel x
seed, and the stdout of the README's command-line examples with the
`elapsedMs` field stripped. Any change to transport, sifting, selection,
key derivation or report formatting that moves a single byte fails here,
which is the determinism contract: a (config, seed) pair fixes the
transcript.

Regenerate only when a transcript change is intended:

    PYTHONPATH=src python tests/test_golden_transcripts.py
"""

import io
import itertools
import json
import os
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qkdforge.bb84 import ChannelModel, EveStrategy, SessionConfig, replay_bob, run_session
from qkdforge.cli import ENV_SEED, main
from qkdforge.codes import named_code

FIXTURE = Path(__file__).with_name("golden_transcripts.json")

MODES = {"standard": 20, "shor_preskill": 7}  # mode -> block size n
EVES = ("none", "uniform_random", "always_Z", "always_X")
CHANNELS = {"quiet": (0.0, 0.0), "noisy": (0.1, 0.15), "saturated": (1.0, 1.0)}
SEEDS = range(10)

README_EXAMPLES = (
    "codes table hamming74 --t 1",
    "codes info parity4",
    "qec demo --code shor --error XZ --qubit 5 --seed 1",
    "css build --c1 hamming74 --c2 dual",
    "css encode --c1 parity4 --c2 dual --v 0011",
    "css inject --c1 hamming74 --c2 dual --e1 0000100 --seed 4",
    "css correct --c1 hamming74 --c2 dual --e1 0001000 --e2 0100000 --seed 2",
    "css verify --c1 parity4 --c2 dual --x-set 0000,0001 --z-set 0000,0001",
    "css verify",
    "distill --code hamming74 --e1 0010000 --e2 0000010 --seed 3",
    "bb84 run --mode shor-preskill --c1 hamming74 --c2 dual --n 7 --seed 7",
    "bb84 run --mode standard --n 50 --eve intercept --seed 1",
    "bb84 sweep --mode shor-preskill --c1 hamming74 --runs 20 --format csv",
    "verify",
)

_ELAPSED = re.compile(r'"elapsedMs": [-+0-9.eE]+(, )?')


def session_config(mode: str, eve: str, channel: str, seed: int) -> SessionConfig:
    hamming = named_code("hamming74")
    px, pz = CHANNELS[channel]
    return SessionConfig(
        n=MODES[mode],
        seed=seed,
        mode=mode,
        channel=ChannelModel(px=px, pz=pz),
        eve=EveStrategy() if eve == "none" else EveStrategy("intercept_resend", eve),
        codes=(hamming, hamming.dual()) if mode == "shor_preskill" else None,
    )


def cli_stdout(argv: str) -> str:
    """Stdout of one CLI call with the run-time field removed."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv.split())
    assert code == 0, argv
    return _ELAPSED.sub("", buffer.getvalue())


def generate() -> dict:
    cells = itertools.product(MODES, EVES, CHANNELS)
    return {
        "sessions": {
            "/".join(cell): [run_session(session_config(*cell, seed)).to_json() for seed in SEEDS]
            for cell in cells
        },
        "cli": {argv: cli_stdout(argv) for argv in README_EXAMPLES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(autouse=True)
def default_seed(monkeypatch):
    # The README examples without --seed read the seed from the environment.
    monkeypatch.delenv(ENV_SEED, raising=False)


def test_fixture_covers_the_grid(golden):
    expected = {"/".join(cell) for cell in itertools.product(MODES, EVES, CHANNELS)}
    assert set(golden["sessions"]) == expected
    assert all(len(texts) == len(SEEDS) for texts in golden["sessions"].values())
    assert list(golden["cli"]) == list(README_EXAMPLES)


@pytest.mark.parametrize("cell", ["/".join(c) for c in itertools.product(MODES, EVES, CHANNELS)])
def test_session_transcripts(golden, cell):
    mode, eve, channel = cell.split("/")
    for seed, text in zip(SEEDS, golden["sessions"][cell]):
        assert run_session(session_config(mode, eve, channel, seed)).to_json() == text, seed


@pytest.mark.parametrize("cell", ["/".join(c) for c in itertools.product(MODES, EVES, CHANNELS)])
def test_replay_bob_matches_transcript(cell):
    """Bob's side recomputed from his measurements and Alice's
    announcements agrees with the transcript, aborted runs included."""
    mode, eve, channel = cell.split("/")
    hamming = named_code("hamming74")
    checked = 0
    for seed in SEEDS:
        transcript = run_session(session_config(mode, eve, channel, seed))
        replayed = replay_bob(transcript, hamming, hamming.dual())
        assert replayed["sifted"] == transcript.sifted, seed
        if transcript.check_idx is None:
            assert set(replayed) == {"sifted"}, seed
            continue
        checked += 1
        assert replayed["mismatches"] == transcript.mismatches, seed
        assert replayed["key_idx"] == transcript.key_idx, seed
        if transcript.bob_block is not None:
            assert replayed["bob_block"] == transcript.bob_block, seed
        if transcript.x_minus_u is not None:
            assert replayed["u_hat"] == transcript.u_hat, seed
            assert replayed["bob_key"] == transcript.bob_key, seed
    assert checked


@pytest.mark.parametrize("argv", README_EXAMPLES)
def test_cli_stdout(golden, argv):
    assert cli_stdout(argv) == golden["cli"][argv]


if __name__ == "__main__":
    os.environ.pop(ENV_SEED, None)
    FIXTURE.write_text(json.dumps(generate(), indent=1) + "\n")
