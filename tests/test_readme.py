"""README.md stays true: its library example runs, and the exact-arithmetic
CLI transcripts it shows are what the CLI prints, byte for byte."""

import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from schurweyl.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def transcript(command):
    """The lines README shows after ``$ schurweyl <command>``, up to the
    next blank line."""
    for block in code_blocks("sh"):
        lines = block.splitlines()
        prompt = f"$ schurweyl {command}"
        if prompt in lines:
            shown = []
            for line in lines[lines.index(prompt) + 1 :]:
                if not line.strip():
                    break
                shown.append(line + "\n")
            return "".join(shown)
    raise AssertionError(f"README shows no transcript of {command!r}")


def test_library_example_runs():
    (block,) = code_blocks("python")
    exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("command", ["bound --partition 3,2,1", "tableaux --partition 2,2 --d 2"])
def test_cli_transcript(command):
    result = CliRunner().invoke(main, command.split())
    assert result.exit_code == 0
    assert result.stdout_bytes == transcript(command).encode()
