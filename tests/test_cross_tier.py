"""The set and groupoid tiers agree on levelwise-discrete groupoids.

A simplicial set viewed as a discrete simplicial groupoid has iso-comma
objects exactly the strict pullback pairs, and an equivalence of
discrete groupoids is a bijection; so both checkers must give the same
rows, and subdividing must commute with the discrete view.
"""

from hypothesis import assume, given, settings, strategies as st

from edgewise.cat import bar, nerve
from edgewise.checks import segal_check, two_segal_check
from edgewise.corpus import (random_category, random_coskeletal_sset,
                             random_partial_monoid)
from edgewise.errors import GenerationError
from edgewise.groupoid import (discrete_sgpd, esd_gpd, sgpd_segal_check,
                               sgpd_two_segal_check)
from edgewise.sset import edgewise

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
