"""Every `chordhom ...` line in the README's "Command line" block runs
in-process through cli.main, exits 0 and prints what it printed when
tests/data/cli_goldens.json was written (cli_goldens), so the documented
interface stays runnable and its output stays byte-identical.  The lines
run are listed here: a README edit that drops one, or adds one that is
neither run nor excluded, fails the first test."""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from chordhom import cli

import cli_goldens

README = Path(__file__).resolve().parents[1] / "README.md"

# lines that need a file the repository does not hold
EXCLUDED = [
    "chordhom homology chekanov_a --complex lin --min-deg -2 --max-deg 2 "
    "--augmentation my_augmentation.json",
    "chordhom examples emit unknot > unknot.dga",
]

RUN = [
    "chordhom validate chekanov_a",
    "chordhom homology unknot_n2 --complex cyc --min-deg 0 --max-deg 8 --max-len 9",
    "chordhom homology unknot --complex ho --min-deg 0 --max-deg 10 --max-len 11",
    "chordhom surgery unknot --filling ball:3 --theory sh --min-deg 0 --max-deg 8",
    "chordhom surgery unknot_n2 --filling ball:2 --theory sh+ --min-deg 0 --max-deg 8",
    "chordhom augmentations chekanov_a --values=-1,0,1",
    "chordhom morphism chekanov_phi",
    "chordhom lefschetz lefschetz_min --t-order 3 --emit dga",
    "chordhom lefschetz lefschetz_min --t-order 3 --emit hochschild",
    "chordhom lefschetz lefschetz_min --t-order 3 --emit dictionary-check",
    "chordhom examples list",
]


def readme_commands() -> list[str]:
    """The `chordhom` lines of the fenced block under "## Command line",
    continuation lines joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    block = re.sub(r"\s*\\\n\s*", " ", block)
    return [line.strip() for line in block.splitlines() if line.startswith("chordhom ")]


def test_every_readme_command_is_run_or_excluded():
    assert sorted(readme_commands()) == sorted(RUN + EXCLUDED)


def run_line(line: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a `chordhom` line run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(shlex.split(line)[1:])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("line", RUN)
def test_readme_command_exits_0(line):
    assert line in readme_commands()
    code, out, err = run_line(line)
    assert code == 0, out + err
    assert cli_goldens.record(code, out) == cli_goldens.load()["readme"][line], out
