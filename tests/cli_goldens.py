"""Golden records of the documented command lines and the scripts: the
exit code and the sha256 of stdout of every README `RUN` line
(test_readme_commands) and of every script in scripts/ (test_scripts).

The data file was written once by running this module as a script

    PYTHONPATH=src python tests/cli_goldens.py > tests/data/cli_goldens.json

and a refactor must leave it as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

DATA = os.path.join(os.path.dirname(__file__), "data", "cli_goldens.json")


def record(code: int, stdout: str) -> dict:
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def load() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


if __name__ == "__main__":
    from test_readme_commands import RUN, run_line
    from test_scripts import SCRIPTS, run_script

    records = {
        "readme": {line: record(*run_line(line)[:2]) for line in RUN},
        "scripts": {
            p.name: record((proc := run_script(p)).returncode, proc.stdout) for p in SCRIPTS
        },
    }
    json.dump(records, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
