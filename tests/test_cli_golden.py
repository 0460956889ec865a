"""Golden CLI output: every family, subcommand and format, byte for byte.

Each command of the matrix below runs in-process, and its exit code,
stdout and stderr must equal the entry recorded in ``cli_golden.json``.
The ``oracle`` subcommand and ``verify --oracle`` are left out: their
located zeros may move below 10^-(prec/2) when the oracle changes.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from zerosum.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FAMILY_ARGS = {
    "sinc": [],
    "bessel": ["--nu", "1/3"],
    "airy": [],
    "qbessel": ["--nu", "1", "--q", "0.5"],
    "qairy": ["--q", "0.5"],
    "zeta": [],
    "dirichlet": ["--discriminant", "-3"],
}

MOMENT_FAMILIES = ("zeta", "dirichlet", "sinc")

CONFIG_ERRORS = [
    ["sums", "--function", "bessel", "--precision", "30"],
    ["sums", "--function", "sinc", "--q", "0.5", "--precision", "30"],
    ["sums", "--function", "sinc", "--scale", "0", "--precision", "30"],
    ["moments", "--function", "dirichlet", "--discriminant", "7", "--precision", "30"],
]


def matrix():
    """Every argv of the golden set, keyed by its space-joined form."""
    commands = []
    for fmt in ("text", "json", "csv"):
        tail = ["--precision", "30", "--format", fmt]
        for family, params in FAMILY_ARGS.items():
            head = ["--function", family, *params]
            commands.append(["sums", *head, "--order", "3", "--sigmas", *tail])
            commands.append(["verify", *head, "--order", "3", *tail])
            if family in MOMENT_FAMILIES:
                commands.append(["moments", *head, "--order", "2", *tail])
    commands.extend(CONFIG_ERRORS)
    return {" ".join(argv): argv for argv in commands}


def run(argv):
    res = CliRunner().invoke(main, argv, catch_exceptions=False)
    return [res.exit_code, res.stdout, res.stderr]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_keys_are_the_matrix(golden):
    assert sorted(golden) == sorted(matrix())


@pytest.mark.parametrize(
    "key", sorted(matrix()), ids=lambda key: re.sub(r"[^\w.-]+", "_", key.replace("--", ""))
)
def test_cli_output_is_byte_identical(golden, key):
    assert run(matrix()[key]) == golden[key]


if __name__ == "__main__":
    recorded = {key: run(argv) for key, argv in matrix().items()}
    GOLDEN.write_text(
        json.dumps(recorded, indent=1, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(recorded)} commands in {GOLDEN}")
