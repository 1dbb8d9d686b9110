"""Mutated files of every format end in exit 0, 1 or 2, never a traceback.

Exit 1 means a checked property failed and 2 means the input is not
valid, so an uncaught exception (also exit 1) would be misread as a
verdict.  Each canonical document is mutated in one place (a key
deleted, a value replaced by another string of the document or by
null, a number, a list or an object, a stray key added) and then run
through ``validate`` and every transform and check that reads its
format.
"""

import contextlib
import io as stdio
import json

import pytest
from hypothesis import given, settings, strategies as st

from edgewise import cli, io
from edgewise.cat import chain_poset, nerve, truncated_free_monoid
from edgewise.checks import segal_check
from edgewise.groupoid import discrete_sgpd, s_construction
from edgewise.sset import standard_simplex

DOCS = {
    "sset": io.save_sset(standard_simplex(1, 3)),
    "category": io.save_category(chain_poset(2)),
    "groupoid": io.save_groupoid(s_construction(3, 2).levels[1]),
    "partial_monoid": io.save_partial_monoid(truncated_free_monoid(2)),
    "sgpd": io.save_sgpd(discrete_sgpd(nerve(chain_poset(1), 2))),
    "report": io.save_report(segal_check(standard_simplex(1, 2))),
}

COMMANDS = {
    "sset": (["validate"], ["esd"], ["check", "segal"], ["check", "2segal"],
             ["check", "theorem"]),
    "category": (["validate"], ["nerve", "--truncation", "3"], ["tw"]),
    "groupoid": (["validate"],),
    "partial_monoid": (["validate"], ["bar", "--truncation", "3"],
                       ["spans"]),
    "sgpd": (["validate"],),
    "report": (["validate"],),
}


def _slots(node):
    """Every (container, key) below node, depth first."""
    out = []
    for key, value in (node.items() if isinstance(node, dict)
                       else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            out += _slots(value)
    return out


def _strings(node):
    if isinstance(node, dict):
        return [s for k, v in node.items() for s in [k] + _strings(v)]
    if isinstance(node, list):
        return [s for v in node for s in _strings(v)]
    return [node] if isinstance(node, str) else []


def mutate(data, doc):
    strings = sorted(set(_strings(doc)))
    values = st.one_of(st.sampled_from(strings),
                       st.sampled_from([None, 3, [], {}]))
    container, key = data.draw(st.sampled_from(_slots(doc)))
    op = data.draw(st.sampled_from(("delete", "replace", "stray")))
    if op == "delete":
        del container[key]
    elif op == "replace":
        container[key] = data.draw(values)
    else:
        target = container[key] if isinstance(container[key], (dict, list)) \
            else container
        if isinstance(target, dict):
            target[data.draw(st.sampled_from(strings + ["zz"]))] = \
                data.draw(values)
        else:
            target.append(data.draw(values))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", sorted(DOCS))
def test_mutated_documents_exit_zero_one_or_two(workdir, kind):
    path = str(workdir / f"{kind}.json")

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def run(data):
        doc = mutate(data, json.loads(DOCS[kind]))
        io.write_text(path, json.dumps(doc))
        for argv in COMMANDS[kind]:
            with contextlib.redirect_stdout(stdio.StringIO()), \
                    contextlib.redirect_stderr(stdio.StringIO()):
                code = cli.main(argv + [path])
            assert code in (0, 1, 2), argv

    run()
