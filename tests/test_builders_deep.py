"""``bar`` and ``nerve`` against their direct forms at deep levels.

``bar`` and ``nerve`` build most tables from the level below, so a
fault in that recurrence shows first at levels the hypothesis tests in
``test_builders_reference`` do not reach.  Here the builders and the
references there must give the same saved bytes and violations, on
valid inputs and on defective ones, where some images are not cells.
"""

import pytest

from edgewise import io
from edgewise.cat import (FinCategory, PartialMonoid, bar, chain_poset,
                          cyclic_monoid, nerve, truncated_free_monoid,
                          validate_partial_monoid)
from edgewise.corpus import diamond_poset
from edgewise.sset import validate

from test_builders_reference import reference_bar, reference_nerve


def not_strongly_associative():
    """(a a) b is defined and a (a b) is not."""
    elements = ("e", "a", "b")
    product = {("e", m): m for m in elements}
    product.update({(m, "e"): m for m in elements})
    product.update({("a", "a"): "b", ("b", "b"): "b", ("a", "b"): "a"})
    return PartialMonoid(elements, "e", product, name="nsa3")


def corrupted_chain():
    """chain2 with 1<2 after 0<1 recorded as 1<1, whose endpoints are
    wrong, so inner faces of strings through it are not cells."""
    A = chain_poset(2)
    compose = dict(A.compose)
    compose[("1<2", "0<1")] = "1<1"
    return FinCategory(A.objects, A.morphisms, A.src, A.tgt, A.identity,
                       compose, name="chain2-corrupt")


CASES = {
    "bar(cyclic3, 7)": (bar, reference_bar, cyclic_monoid(3), 7),
    "bar(tfm2, 6)": (bar, reference_bar, truncated_free_monoid(2), 6),
    "bar(nsa3, 6)": (bar, reference_bar, not_strongly_associative(), 6),
    "nerve(diamond, 6)": (nerve, reference_nerve, diamond_poset(), 6),
    "nerve(chain2-corrupt, 5)": (nerve, reference_nerve, corrupted_chain(),
                                 5),
}
DEFECTIVE = ("bar(nsa3, 6)", "nerve(chain2-corrupt, 5)")


@pytest.mark.parametrize("case", sorted(CASES))
def test_deep_levels_match_the_reference(case):
    build, reference, data, truncation = CASES[case]
    X, Y = build(data, truncation), reference(data, truncation)
    assert io.save_sset(X) == io.save_sset(Y)
    assert validate(X) == validate(Y)
    assert bool(validate(X)) == (case in DEFECTIVE)


def test_defective_inputs_reach_images_that_are_not_cells():
    assert validate_partial_monoid(not_strongly_associative())
    for case in DEFECTIVE:
        build, _, data, truncation = CASES[case]
        X = build(data, truncation)
        assert any(isinstance(t, dict)
                   for t in X._tables["face"].values()), case
