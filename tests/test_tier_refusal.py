"""Each tier refuses the other tier's object with one ``InputError``.

The set tier reads ``TruncatedSSet`` position tables and the groupoid
tier ``TruncatedSGpd`` functors.  Each tier checks the type where it
first reads an object: its act, its validator, its saver,
``discrete_sgpd`` and ``nondegenerate_cells``, and each set-tier check
and each tier's subdivision on entry, before any index or row work.
So every entry point names both types instead of ending in an
``AttributeError`` or a ``TypeError`` deep inside, in a misleading "not
simplicial" error, or in a verdict on the other tier's object when its
truncation leaves no row to compute.
"""

import pytest

from edgewise import checks, groupoid, io
from edgewise.delta import identity
from edgewise.errors import InputError
from edgewise.sset import (act, act_positions, edgewise, nondegenerate_cells,
                           op_reverse, standard_simplex, subdivide, validate)

X = standard_simplex(1, 3)
Y = groupoid.discrete_sgpd(X)

SET_TIER = {
    "segal_check": checks.segal_check,
    "two_segal_check": checks.two_segal_check,
    "theorem_verify": checks.theorem_verify,
    "beta_gamma_equality": lambda Z: checks.beta_gamma_equality(Z, 1, 1),
    "retract_verify": lambda Z: checks.retract_verify(Z, 3, 2),
    "retract_verify_reversed":
        lambda Z: checks.retract_verify_reversed(Z, 3, 1),
    "edgewise": edgewise,
    "validate": validate,
    "act": lambda Z: act(identity(1), Z),
    "nondegenerate_cells": lambda Z: nondegenerate_cells(Z, 1),
    "discrete_sgpd": groupoid.discrete_sgpd,
    "save_sset": io.save_sset,
}

GROUPOID_TIER = {
    "sgpd_segal_check": groupoid.sgpd_segal_check,
    "sgpd_two_segal_check": groupoid.sgpd_two_segal_check,
    "sgpd_beta_gamma_equality":
        lambda Z: groupoid.sgpd_beta_gamma_equality(Z, 1, 1),
    "esd_gpd": groupoid.esd_gpd,
    "act_gpd": lambda Z: groupoid.act_gpd(identity(1), Z),
    "validate_sgpd": groupoid.validate_sgpd,
    "save_sgpd": io.save_sgpd,
}


@pytest.mark.parametrize("name", sorted(SET_TIER))
def test_the_set_tier_refuses_a_groupoid(name):
    with pytest.raises(InputError) as caught:
        SET_TIER[name](Y)
    assert str(caught.value) == \
        "expected a TruncatedSSet, got a TruncatedSGpd"


@pytest.mark.parametrize("name", sorted(GROUPOID_TIER))
def test_the_groupoid_tier_refuses_a_set(name):
    with pytest.raises(InputError) as caught:
        GROUPOID_TIER[name](X)
    assert str(caught.value) == \
        "expected a TruncatedSGpd, got a TruncatedSSet"


@pytest.mark.parametrize("call", [
    lambda: groupoid.sgpd_segal_check(standard_simplex(1, 0)),
    lambda: groupoid.sgpd_two_segal_check(standard_simplex(1, 2)),
    lambda: groupoid.sgpd_beta_gamma_equality(standard_simplex(1, 2), 1, 1),
    lambda: groupoid.esd_gpd(standard_simplex(1, 2)),
], ids=["segal-0", "two-segal-2", "beta-gamma-2", "esd-2"])
def test_the_groupoid_checks_refuse_a_set_with_no_rows(call):
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == \
        "expected a TruncatedSGpd, got a TruncatedSSet"


def _shallow(truncation):
    return groupoid.discrete_sgpd(standard_simplex(1, truncation))


@pytest.mark.parametrize("call", [
    lambda: checks.segal_check(_shallow(0)),
    lambda: checks.two_segal_check(_shallow(2)),
    lambda: checks.beta_gamma_equality(_shallow(2), 1, 1),
    lambda: checks.retract_verify(_shallow(2), 3, 2),
    lambda: checks.retract_verify_reversed(_shallow(2), 3, 1),
    lambda: checks.theorem_verify(_shallow(2)),
    lambda: edgewise(_shallow(2)),
], ids=["segal-0", "two-segal-2", "beta-gamma-2", "retract-2",
        "retract-reversed-2", "theorem-2", "edgewise-2"])
def test_the_set_checks_refuse_a_groupoid_with_no_rows(call):
    with pytest.raises(InputError) as caught:
        call()
    assert str(caught.value) == \
        "expected a TruncatedSSet, got a TruncatedSGpd"


def test_each_tier_still_takes_its_own():
    for name, call in SET_TIER.items():
        if name != "discrete_sgpd":
            call(X)
    for call in GROUPOID_TIER.values():
        call(Y)
    assert groupoid.discrete_sgpd(X).truncation == 3


def test_reversal_and_subdivision_take_both_tiers():
    assert op_reverse(X).levels == X.levels
    assert op_reverse(Y).levels == Y.levels
    assert subdivide(X, act_positions) == edgewise(X)
    assert isinstance(subdivide(Y, groupoid.act_gpd), groupoid.TruncatedSGpd)
