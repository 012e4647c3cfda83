"""The CLI's option surface, pinned against ``tests/golden/cli_options.json``.

For every subcommand the snapshot records its help line and, in
declaration order, each argparse action's option strings, dest,
default, type, choices, nargs, required flag, metavar, help text and
action class, one action per line.  It reads the parser's structured
actions rather than formatted ``--help`` text, so it holds on every
supported Python version.  A flag that is renamed, retyped, reordered,
re-defaulted or re-worded fails here naming the subcommand and field.

To bless an intentional change::

    PYTHONPATH=src python -m pytest tests/test_cli_options.py --regen-golden
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

SNAPSHOT_FILE = Path(__file__).resolve().parent / "golden" / "cli_options.json"


def _action_record(command: str, action: argparse.Action) -> dict:
    return {
        "command": command,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "choices": list(action.choices) if action.choices else None,
        "nargs": action.nargs,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
        "action": type(action).__name__,
    }


def option_snapshot(parser: argparse.ArgumentParser) -> dict:
    """``{"commands": {name: help}, "actions": [record, ...]}``."""
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {
        "commands": {choice.dest: choice.help
                     for choice in subparsers._choices_actions},
        "actions": [_action_record(name, action)
                    for name, sub in subparsers.choices.items()
                    for action in sub._actions],
    }


def _dump(snapshot: dict) -> str:
    rows = ",\n  ".join(json.dumps(row) for row in snapshot["actions"])
    commands = json.dumps(snapshot["commands"], indent=2).replace("\n", "\n ")
    return f'{{\n "commands": {commands},\n "actions": [\n  {rows}\n ]\n}}\n'


def _by_command(snapshot: dict) -> dict:
    grouped: dict = {name: [] for name in snapshot["commands"]}
    for row in snapshot["actions"]:
        grouped[row["command"]].append(row)
    return grouped


def test_options_match_snapshot(regen_golden):
    actual = option_snapshot(build_parser())
    if regen_golden:
        SNAPSHOT_FILE.write_text(_dump(actual))
    expected = json.loads(SNAPSHOT_FILE.read_text())
    assert actual["commands"] == expected["commands"]
    live, pinned = _by_command(actual), _by_command(expected)
    for command, rows in pinned.items():
        names = [row["option_strings"] or [row["dest"]] for row in rows]
        live_names = [row["option_strings"] or [row["dest"]]
                      for row in live[command]]
        assert live_names == names, f"{command}: options differ"
        for live_row, row in zip(live[command], rows):
            for key, value in row.items():
                assert live_row[key] == value, (
                    f"{command} {row['option_strings'] or row['dest']}: "
                    f"{key} is {live_row[key]!r}, snapshot has {value!r}"
                )
