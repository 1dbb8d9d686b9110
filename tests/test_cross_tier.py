"""The set and groupoid tiers agree on levelwise-discrete groupoids.

A simplicial set viewed as a discrete simplicial groupoid has iso-comma
objects exactly the strict pullback pairs, and an equivalence of
discrete groupoids is a bijection; so both checkers must give the same
rows, and subdividing must commute with the discrete view.  A table
that is not a map of levels is refused alike by both tiers.
"""

from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from edgewise.cat import bar, nerve
from edgewise.checks import segal_check, two_segal_check
from edgewise.corpus import (random_category, random_coskeletal_sset,
                             random_partial_monoid, standard_corpus)
from edgewise.errors import GenerationError, InputError
from edgewise.groupoid import (discrete_sgpd, esd_gpd, sgpd_segal_check,
                               sgpd_two_segal_check)
from edgewise.sset import TruncatedSSet, _not_a_map, edgewise

SMALL = settings(max_examples=25, deadline=None, derandomize=True)
MAX_CELLS = 100     # per level; keeps the groupoid checks well under a second


@st.composite
def small_instances(draw):
    """A seeded nerve, bar or coskeletal instance, truncation 2 to 4."""
    kind = draw(st.sampled_from(("nerve", "bar", "coskeletal")))
    seed = draw(st.integers(0, 10 ** 6))
    truncation = draw(st.integers(2, 4))
    try:
        if kind == "nerve":
            X = nerve(random_category(seed, max_objects=3, max_morphisms=8),
                      truncation)
        elif kind == "bar":
            X = bar(random_partial_monoid(draw(st.integers(1, 3)), seed),
                    truncation)
        else:
            X = random_coskeletal_sset(2, draw(st.integers(0, 2)),
                                       truncation, seed, level_cap=MAX_CELLS)
    except GenerationError:
        assume(False)
    assume(max(X.level_sizes()) <= MAX_CELLS)
    return X


def _rows(report):
    return [(e.kind, e.indices, e.domain_size, e.codomain_size, e.verdict)
            for e in report.entries]


@SMALL
@given(small_instances(), st.sampled_from(("full", "reduced")))
def test_discrete_groupoid_reports_match_the_set_reports(X, mode):
    D = discrete_sgpd(X)
    for gpd, sets in ((sgpd_segal_check(D), segal_check(X)),
                      (sgpd_two_segal_check(D, mode),
                       two_segal_check(X, mode))):
        assert gpd.semantics == "groupoid" and sets.semantics == "set"
        assert _rows(gpd) == _rows(sets)
        assert gpd.summary == sets.summary


@SMALL
@given(small_instances())
def test_subdividing_commutes_with_the_discrete_view(X):
    E = edgewise(X)
    G = esd_gpd(discrete_sgpd(X))
    assert G.truncation == E.truncation
    assert {k: F.on_objects for k, F in G.face.items()} == E.face
    assert {k: F.on_objects for k, F in G.degeneracy.items()} == \
        E.degeneracy


@cache
def _small_corpus():
    """The corpus members with at most 60 cells per level."""
    return [inst.sset for inst in standard_corpus()
            if max(inst.sset.level_sizes()) <= 60]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_both_tiers_refuse_a_table_that_is_not_a_map_alike(data):
    # one table with an entry dropped or a stray key: where the set
    # check meets it, the groupoid check on the discrete view raises the
    # same text; where the set check never reads it, the groupoid check
    # still refuses it
    X = data.draw(st.sampled_from(_small_corpus()))
    kind = data.draw(st.sampled_from(("face", "degeneracy")))
    tables = {"face": X.face, "degeneracy": X.degeneracy}
    n, i = key = data.draw(st.sampled_from(sorted(tables[kind])))
    table = tables[kind][key]
    if data.draw(st.booleans()):
        del table[data.draw(st.sampled_from(sorted(table)))]
    else:
        table["zz"] = data.draw(st.sampled_from(sorted(table.values())))
    Y = TruncatedSSet(X.truncation, X.levels, tables["face"],
                      tables["degeneracy"])
    D = discrete_sgpd(Y)
    mode = data.draw(st.sampled_from(("full", "reduced")))
    for set_check, gpd_check in (
            (segal_check, sgpd_segal_check),
            (lambda Z: two_segal_check(Z, mode),
             lambda Z: sgpd_two_segal_check(Z, mode))):
        try:
            set_check(Y)
        except InputError as exc:
            expected = str(exc)
        else:
            expected = str(_not_a_map(kind, n, i))
        with pytest.raises(InputError) as exc:
            gpd_check(D)
        assert str(exc.value) == expected
