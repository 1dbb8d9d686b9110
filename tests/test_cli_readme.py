"""README's "Command line" block against the parser.

Every invocation listed there must parse.  Placeholders are filled in
first (``<...>`` with a path, ``N``, ``s``, ``r``, ``k`` and ``c`` with
1), alternatives ``a|b`` and optional ``[...]`` parts are expanded, and
comments are dropped.  Every subcommand must be listed at least once.
"""

import argparse
import itertools
import os
import re

import pytest

from edgewise import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUMBERS = {"N", "s", "r", "k", "c"}


def _block():
    with open(os.path.join(ROOT, "README.md")) as handle:
        text = handle.read()
    section = text.split("## Command line", 1)[1]
    return section.split("```", 2)[1].strip().splitlines()


def _choices(token):
    """The spellings of one README token."""
    if token.startswith("[") and token.endswith("]"):
        return [None] + _choices(token[1:-1])
    if re.fullmatch(r"<[^>]+>", token):
        return ["in.json"]
    if token in NUMBERS:
        return ["1"]
    return token.split("|")


def _invocations():
    for line in _block():
        tokens = line.split("#", 1)[0].split()
        assert tokens[0] == "edgewise", line
        for picked in itertools.product(*map(_choices, tokens[1:])):
            yield [t for t in picked if t is not None]


INVOCATIONS = list(_invocations())


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_readme_invocation_parses(argv):
    args = cli._build_parser().parse_args(argv)
    assert callable(args.run)


def _subcommands(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_readme_lists_every_subcommand():
    listed = {tuple(argv[:2]) if argv[0] == "gen" else (argv[0],)
              for argv in INVOCATIONS}
    expected = {(name, *what) for name, sub in
                _subcommands(cli._build_parser()).items()
                for what in ([(w,) for w in _subcommands(sub)] or [()])}
    assert listed == expected
