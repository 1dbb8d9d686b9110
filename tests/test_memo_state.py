"""No state crosses instances through the Δ memos.

``delta`` keeps its constructors' results and the maps' generator paths
for the life of the process, keyed by ints and ``SimplexMap``s only.
So a report must not depend on what was checked before it in the same
process: sweeping the standard corpus in either order, in fresh
processes, gives the same report bytes per instance, and a groupoid
check gives the same bytes before and after a set-tier sweep.  Indices
that are not ``int`` exactly are refused before any memo is read,
whether the int call came first or second.
"""

import json
import os
import subprocess
import sys

import pytest

from edgewise.cat import bar, cyclic_monoid
from edgewise.checks import segal_map, theorem_verify, two_segal_map
from edgewise.corpus import standard_corpus
from edgewise.delta import (SimplexMap, codegeneracy, coface, edgewise_on_map,
                            generator_path, induced_subset_map,
                            retract_retraction, retract_section,
                            segal_inclusions, two_segal_inclusions, vertex)
from edgewise.errors import InputError
from edgewise.io import save_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh(script, *args):
    """Run ``script`` in a new interpreter; its last output line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


SWEEP = """
import hashlib, json, sys
from edgewise.checks import theorem_verify
from edgewise.corpus import standard_corpus
from edgewise.io import save_report
corpus = standard_corpus()
if sys.argv[1] == "reverse":
    corpus = corpus[::-1]
print(json.dumps({c.name: save_report(theorem_verify(c.sset))
                  for c in corpus}))
"""


def test_corpus_reports_do_not_depend_on_the_order_of_the_sweep():
    forward = _fresh(SWEEP, "forward")
    backward = _fresh(SWEEP, "reverse")
    here = {c.name: save_report(theorem_verify(c.sset))
            for c in standard_corpus()}
    assert list(forward) == list(here)
    assert forward == backward == here


GROUPOID_AROUND_SWEEP = """
import json
from edgewise.checks import theorem_verify
from edgewise.corpus import standard_corpus
from edgewise.groupoid import s_construction, sgpd_two_segal_check
from edgewise.io import save_report
def check():
    return save_report(sgpd_two_segal_check(s_construction(2, 4)))
before = check()
for c in standard_corpus():
    theorem_verify(c.sset)
print(json.dumps([before, check()]))
"""


def test_groupoid_report_is_the_same_before_and_after_a_set_sweep():
    before, after = _fresh(GROUPOID_AROUND_SWEEP)
    assert before == after


# Each case: the call with an index that is not an int, and its int twin.
REFUSALS = """
import json, sys
from edgewise.cat import bar, cyclic_monoid
from edgewise.checks import segal_map, two_segal_map
from edgewise.delta import (SimplexMap, codegeneracy, coface, vertex,
                            two_segal_inclusions)
from edgewise.errors import InputError
X = bar(cyclic_monoid(2), 4)
CASES = [
    (lambda: coface(1.0, 2), lambda: coface(1, 2)),
    (lambda: two_segal_inclusions(3, False, 2),
     lambda: two_segal_inclusions(3, 0, 2)),
    (lambda: codegeneracy(0, 1.0), lambda: codegeneracy(0, 1)),
    (lambda: vertex(True, 1), lambda: vertex(1, 1)),
    (lambda: segal_map(X, 2.0, 1), lambda: segal_map(X, 2, 1)),
    (lambda: two_segal_map(X, 3, 0, 2.0), lambda: two_segal_map(X, 3, 0, 2)),
]
def run(call):
    try:
        return ["ok", repr(call())]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
out = []
for bad, good in CASES:
    calls = (bad, good) if sys.argv[1] == "bad-first" else (good, bad)
    got = [run(c) for c in calls]
    out.append(got if sys.argv[1] == "bad-first" else got[::-1])
print(json.dumps(out))
"""


@pytest.mark.parametrize("order", ["bad-first", "int-first"])
def test_non_int_indices_are_refused_whichever_call_comes_first(order):
    X = bar(cyclic_monoid(2), 4)
    wanted = [repr(coface(1, 2)), repr(two_segal_inclusions(3, 0, 2)),
              repr(codegeneracy(0, 1)), repr(vertex(1, 1)),
              repr(segal_map(X, 2, 1)), repr(two_segal_map(X, 3, 0, 2))]
    for (bad, good), want in zip(_fresh(REFUSALS, order), wanted):
        assert bad[0] == "InputError", bad
        assert "is not an int" in bad[1]
        assert good == ["ok", want]


def test_non_int_indices_are_refused_with_warm_memos():
    X = bar(cyclic_monoid(2), 4)
    for name, fn, args in [
            ("coface", coface, (1, 2)),
            ("codegeneracy", codegeneracy, (0, 1)),
            ("vertex", vertex, (0, 1)),
            ("segal_inclusions", segal_inclusions, (2, 1)),
            ("two_segal_inclusions", two_segal_inclusions, (3, 0, 2)),
            ("retract_section", retract_section, (3, 2)),
            ("retract_retraction", retract_retraction, (3, 2))]:
        fn(*args)
        for k in range(len(args)):
            for bad in (float(args[k]), bool(args[k]), str(args[k])):
                wrong = args[:k] + (bad,) + args[k + 1:]
                with pytest.raises(InputError,
                                   match=f"^{name}: .* is not an int"):
                    fn(*wrong)
    alpha = SimplexMap((0, 1), 3)
    for fn in (edgewise_on_map, generator_path):
        fn(alpha)
        with pytest.raises(InputError, match="is not an int"):
            fn(alpha.values)
    with pytest.raises(InputError, match="is not an int"):
        induced_subset_map(alpha, alpha, (0, 1))
    for bad in [lambda: SimplexMap((0,), 2.5), lambda: SimplexMap((0.0,), 2),
                lambda: SimplexMap((True,), 2),
                lambda: segal_map(X, 2, "1"),
                lambda: two_segal_map(X, 3.0, 0, 2)]:
        with pytest.raises(InputError, match="is not an int"):
            bad()
