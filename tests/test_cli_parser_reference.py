"""The command-line parser against a reference copy of its earlier form.

The ``_build_parser`` kept here is the parser as it was written out by
hand, one subcommand after another, before the file transforms came
from one table and each subcommand named its runner.  Every parser entry (the
top level, each subcommand and each ``gen`` subcommand) must render the
same help text and hold the same actions in the same order.
"""

import argparse

import pytest

from edgewise import cli


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"),
                        default="human", dest="fmt",
                        help="report rendering (default: human)")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed, echoed into report headers")
    common.add_argument("--budget-iso-nodes", type=int, default=None,
                        help="node budget for isomorphism searches")
    common.add_argument("--budget-fuzz-count", type=int, default=None,
                        help="cap on fuzz instances")

    p = argparse.ArgumentParser(
        prog="edgewise",
        description="subdivision, Segal and 2-Segal checking for finite "
                    "simplicial data")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", parents=[common],
                       help="validate any known file format")
    q.add_argument("file")

    q = sub.add_parser("esd", parents=[common],
                       help="edgewise subdivision of a simplicial set file")
    q.add_argument("file")
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("nerve", parents=[common],
                       help="nerve of a category file")
    q.add_argument("file")
    q.add_argument("--truncation", type=int, required=True)
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("tw", parents=[common],
                       help="twisted arrow category of a category file")
    q.add_argument("file")
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("bar", parents=[common],
                       help="bar construction of a partial monoid file")
    q.add_argument("file")
    q.add_argument("--truncation", type=int, required=True)
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("spans", parents=[common],
                       help="span category of a partial monoid file")
    q.add_argument("file")
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("check", parents=[common],
                       help="run a checker on a simplicial set file")
    q.add_argument("what", choices=("segal", "2segal", "theorem"))
    q.add_argument("file")
    q.add_argument("--reduced", action="store_true",
                   help="2segal only: restrict to the boundary index family")

    q = sub.add_parser("gen", help="generate a seeded instance")
    gen_sub = q.add_subparsers(dest="what", required=True)
    g = gen_sub.add_parser("partial-monoid", parents=[common])
    g.add_argument("--size", type=int, required=True,
                   help="1 to 5; sizes 1-4 succeed for every seed 0-99, "
                        "size 5 almost never (seeds 0 and 61 of 0-99) and "
                        "exits 2 with a generation error")
    g.add_argument("-o", "--output", default=None)
    g = gen_sub.add_parser("coskeletal", parents=[common])
    g.add_argument("--spec", required=True,
                   help="vertices,edges,truncation")
    g.add_argument("-o", "--output", default=None)

    q = sub.add_parser("sconstruction", parents=[common],
                       help="simplicial groupoid of pointed-set arrays")
    q.add_argument("--max-card", type=int, required=True)
    q.add_argument("--truncation", type=int, required=True)
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("fuzz", parents=[common],
                       help="randomized matched-verdict sweep")
    q.add_argument("--count", type=int, default=100)

    q = sub.add_parser("draw", parents=[common],
                       help="graph-description diagram")
    q.add_argument("what", choices=("esd-simplex",))
    q.add_argument("k", type=int)
    q.add_argument("-o", "--output", default=None)
    return p


def _entries(parser, path=()):
    """(path, parser) for the parser and every subparser below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _entries(child, path + (name,))


def _described(action):
    choices = action.choices
    if isinstance(choices, dict):   # subcommands: compared by name
        choices = tuple(choices)
    return (type(action).__name__, tuple(action.option_strings), action.dest,
            action.default, action.required, choices, action.type,
            action.nargs, action.help)


def _paths():
    return [path for path, _ in _entries(_build_parser())]


def test_every_entry_is_covered():
    paths = _paths()
    assert len(paths) == 14
    assert [p for p, _ in _entries(cli._build_parser())] == paths


@pytest.mark.parametrize("path", _paths(), ids=lambda p: " ".join(p) or "top")
def test_entry_matches_the_reference(path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = dict(_entries(_build_parser()))[path]
    got = dict(_entries(cli._build_parser()))[path]
    assert got.format_help() == want.format_help()
    assert got.prog == want.prog
    assert [_described(a) for a in got._actions] == \
        [_described(a) for a in want._actions]
