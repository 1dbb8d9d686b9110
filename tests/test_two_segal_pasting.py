"""The set tier's 2-Segal sweep, which infers passing rows by pasting,
against the counting sweep it replaced.

When every face table is a position tuple and the face identities hold
(``checks._pastes``), ``Semantics.two_segal_rows`` counts only the rows
without premises, the identity-factor rows and rows with a premise that
fails; a row whose three premises pass is reported as passing without
being computed.  The reference below computes every row, in report
order, with the single-row ``two_segal_map``.  Both must give the same
report bytes and the same ``InputError`` texts, in both modes, on sets
the guard accepts and on sets it refuses.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from edgewise import checks, groupoid, io
from edgewise.cat import bar, cyclic_monoid, nerve
from edgewise.checks import (SET, _entry, _pastes, _report, two_segal_check,
                             two_segal_map)
from edgewise.corpus import (random_category, random_coskeletal_sset,
                             random_partial_monoid, standard_corpus)
from edgewise.errors import GenerationError, InputError
from edgewise.groupoid import s_construction, sgpd_two_segal_check
from test_theorem_one_pass import _broken, _two_segal_indices


def counted_report(X, mode):
    """Every row computed by counting, in report order."""
    entries = [_entry(two_segal_map(X, *idx))
               for idx in _two_segal_indices(X.truncation, mode)]
    return _report("set", X, entries, "two_segal", 3, mode=mode)


def _outcome(check, X, mode):
    try:
        return io.save_report(check(X, mode))
    except InputError as e:
        return f"InputError: {e}"


def computed_rows(X, mode):
    """How many rows the sweep computes, and how many it gives."""
    computed = Counter()

    def counting(Y, n, i, j):
        computed[n, i, j] += 1
        return two_segal_map(Y, n, i, j)

    rows = list(SET.two_segal_rows(X, mode, counting))
    assert set(computed.values()) <= {1}
    return len(computed), len(rows)


def assert_same_reports(X):
    """The reports of both sweeps agree in both modes; returns whether
    the full sweep inferred any row."""
    for mode in ("full", "reduced"):
        assert _outcome(two_segal_check, X, mode) == \
            _outcome(counted_report, X, mode), (X.name, mode)
    try:
        computed, given = computed_rows(X, "full")
    except InputError:
        return False
    return computed < given


def test_corpus_reports_match_the_counting_sweep():
    inferred, overall = set(), set()
    for inst in standard_corpus():
        X = inst.sset
        inferred.add(assert_same_reports(X))
        overall.add(two_segal_check(X).overall)
    assert inferred == {True, False}
    assert overall == {"pass", "fail"}


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(("nerve", "bar", "coskeletal")))
    seed = draw(st.integers(0, 10 ** 6))
    try:
        if kind == "nerve":
            return nerve(random_category(seed, 3, 12),
                         draw(st.integers(4, 5)))
        if kind == "bar":
            return bar(random_partial_monoid(draw(st.integers(1, 3)), seed),
                       draw(st.integers(4, 7)))
        return random_coskeletal_sset(2, draw(st.integers(0, 2)),
                                      draw(st.integers(4, 5)), seed)
    except GenerationError:
        assume(False)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(instances())
def test_drawn_reports_match_the_counting_sweep(X):
    assert_same_reports(X)


def test_one_broken_face_or_degeneracy_gives_the_same_outcomes():
    X = bar(cyclic_monoid(2), 5)
    guarded, inferred = Counter(), Counter()
    for kind in ("face", "degeneracy"):
        for key in getattr(X, kind):
            for how in ("drop", "rename", "redirect"):
                Y = _broken(X, kind, key, how)
                inferred[kind] += assert_same_reports(Y)
                guarded[kind, _pastes(Y)] += 1
    # a broken face is refused, but for the two level-1 faces
    # "redirected" to the one vertex they had; degeneracies never enter
    # a 2-Segal row
    assert guarded == {("face", False): 58, ("face", True): 2,
                       ("degeneracy", True): 45}
    assert inferred == {"face": 2, "degeneracy": 45}


def test_rows_computed_on_the_truncation_nine_bar(monkeypatch):
    # 29 of the 161 rows of X are counted: the two base rows of each
    # level, and rows theorem_verify reads the tables of (levels 3-5 and
    # the matched rows); 49 more are identity-factor rows of one act
    X = bar(cyclic_monoid(3), 9)
    counted, computed = Counter(), Counter()
    real_counted = checks._counted

    def counting(kind, indices, Y, *inclusions):
        counted[Y.name, kind] += 1
        return real_counted(kind, indices, Y, *inclusions)

    def computing(kind, indices, Y, *inclusions):
        computed[Y.name, kind] += 1
        return SET.compare(kind, indices, Y, *inclusions)

    monkeypatch.setattr(checks, "_counted", counting)
    monkeypatch.setattr(checks, "SET",
                        dataclasses.replace(SET, compare=computing))
    assert checks.theorem_verify(X).overall == "pass"
    assert counted[X.name, "two_segal"] == 29
    assert computed[X.name, "two_segal"] == 78
    assert len(list(_two_segal_indices(9, "full"))) == 161


@pytest.mark.parametrize("truncation", [3, 4])
def test_the_groupoid_tier_computes_every_row(monkeypatch, truncation):
    # at truncation 4 its rows all pass, so pasting would infer some;
    # without a guard the rows are computed in report order
    Y = s_construction(2, truncation)
    calls = []
    real = groupoid.sgpd_two_segal_map

    def counting(Z, n, i, j):
        calls.append((n, i, j))
        return real(Z, n, i, j)

    monkeypatch.setattr(groupoid, "sgpd_two_segal_map", counting)
    for mode in ("full", "reduced"):
        calls.clear()
        report = sgpd_two_segal_check(Y, mode)
        assert calls == list(_two_segal_indices(truncation, mode))
        assert len(report.entries) == len(calls)
        assert truncation == 3 or report.overall == "pass"


@pytest.mark.parametrize("key, error", [
    ((3, 0), None),
    ((4, 4), "two_segal comparison at (4, 0, 2) leaves the pullback"),
])
def test_a_refused_set_computes_every_row_in_report_order(key, error):
    # one redirected face: the guard refuses the set, so every row is
    # computed in report order, and an error is raised at the first row
    # in that order that meets it
    Y = _broken(bar(cyclic_monoid(2), 5), "face", key, "redirect")
    assert not _pastes(Y)
    calls = []

    def counting(Z, n, i, j):
        calls.append((n, i, j))
        return two_segal_map(Z, n, i, j)

    order = list(_two_segal_indices(Y.truncation, "full"))
    try:
        rows = [row.indices for row in SET.two_segal_rows(Y, "full",
                                                          counting)]
    except InputError as e:
        assert error is not None and str(e).startswith(error)
        assert calls == order[:order.index((4, 0, 2)) + 1]
    else:
        assert error is None
        assert calls == rows == order


def test_rows_are_yielded_as_they_are_decided():
    # no decided row is held back: at every yield, each row computed so
    # far has been yielded already or is the one yielded
    X = bar(cyclic_monoid(3), 6)
    computed, yielded = [], set()

    def counting(Y, n, i, j):
        computed.append((n, i, j))
        return two_segal_map(Y, n, i, j)

    for row in SET.two_segal_rows(X, "full", counting):
        yielded.add(row.indices)
        assert yielded.issuperset(computed), row.indices
    assert len(computed) < len(yielded) == \
        len(list(_two_segal_indices(6, "full")))
