"""The set tier's counting paths against plain reference versions.

``act`` composes from the last generator back, a comparison is decided
by counting, and ``theorem_verify`` makes one pass over the 2-Segal
sweep.  The references below are the direct forms: composition one
generator at a time over level m, a nested-loop pullback with an
ordered scan, and the two checkers run separately.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from edgewise import io
from edgewise.cat import bar, cyclic_monoid, truncated_free_monoid
from edgewise.checks import (CheckEntry, CheckReport, _compare, segal_check,
                             theorem_verify, two_segal_check)
from edgewise.corpus import random_coskeletal_sset
from edgewise.delta import SimplexMap, epi_mono_factorize
from edgewise.errors import InputError
from edgewise.sset import (TruncatedSSet, act, edgewise, standard_simplex,
                           strict_pullback)

settings.register_profile("suite", settings(max_examples=60,
                                            derandomize=True))
settings.load_profile("suite")


# -- references -------------------------------------------------------------


def reference_act(alpha, X):
    """Compose over all of level m, one generator at a time."""
    cofaces, codegens = epi_mono_factorize(alpha)
    level = alpha.cod_dim
    table = {c: c for c in X.level(level)}
    for i in reversed(cofaces):
        step = X.face_map(level, i)
        table = {c: step[v] for c, v in table.items()}
        level -= 1
    for j in codegens:
        step = X.degeneracy_map(level, j)
        table = {c: step[v] for c, v in table.items()}
        level += 1
    return table


def reference_pairs(f, g):
    return tuple((a, b) for a in f for b in g if f[a] == g[b])


def reference_decision(kind, indices, domain, table, f, g):
    """Enumerate the pullback, then scan: (verdict, witness, size)."""
    pairs = reference_pairs(f, g)
    pair_set = set(pairs)
    seen = {}
    collision = None
    for x in domain:
        p = table[x]
        if p not in pair_set:
            raise InputError(
                f"{kind} comparison at {indices} leaves the pullback "
                f"at cell {x!r}; input tables are not simplicial")
        if p in seen and collision is None:
            collision = ("collision", (seen[p], x))
        seen.setdefault(p, x)
    witness = collision
    if witness is None:
        for p in pairs:
            if p not in seen:
                witness = ("uncovered", p)
                break
    return ("pass" if witness is None else "fail"), witness, len(pairs)


# -- comparison decisions ---------------------------------------------------


@st.composite
def decisions(draw):
    """Two legs and a table into their pairs, or near them.

    Images start from a shuffled list of the pullback's pairs, so
    bijections are common; a prefix is kept (uncovered pairs) and extra
    images are appended, repeats (collisions) or pairs of leg cells
    outside the pullback.
    """
    values = st.sampled_from("uvw")
    f = draw(st.dictionaries(st.sampled_from(["a0", "a1", "a2", "a3"]),
                             values, max_size=4))
    g = draw(st.dictionaries(st.sampled_from(["b0", "b1", "b2", "b3"]),
                             values, max_size=4))
    pairs = reference_pairs(f, g)
    images = draw(st.permutations(pairs))
    images = list(images[:draw(st.integers(0, len(images)))])
    near = [*pairs, *((a, b) for a in f for b in g)]
    if near:
        images += draw(st.lists(st.sampled_from(near), max_size=3))
    domain = tuple(f"x{k}" for k in range(len(images)))
    return domain, dict(zip(domain, images)), f, g


def compare(kind, indices, domain, table, P):
    """``_compare`` on the table's images as positions in P's legs."""
    left, right = ({c: p for p, c in enumerate(side)}
                   for side in (P.left, P.right))
    images = [table[x] for x in domain]
    outer = tuple(left[a] for a, _ in images)
    inner = tuple(right[b] for _, b in images)
    return _compare(kind, indices, domain, outer, inner, P)


@given(decisions())
def test_decision_matches_enumerate_and_scan(case):
    domain, table, f, g = case
    try:
        want = reference_decision("segal", (2, 1), domain, table, f, g)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            compare("segal", (2, 1), domain, table, strict_pullback(f, g))
        assert str(got.value) == str(exc)
        return
    comp = compare("segal", (2, 1), domain, table, strict_pullback(f, g))
    assert (comp.verdict, comp.witness, comp.codomain_size) == want
    assert comp.table == table


@given(decisions())
def test_pullback_matches_nested_loop(case):
    _, table, f, g = case
    P = strict_pullback(f, g)
    pairs = reference_pairs(f, g)
    assert P.size() == len(pairs)
    assert P.pairs == pairs
    for p in table.values():
        assert (p in P) == (p in set(pairs))


def test_pullback_equality_is_by_pairs():
    f = {"a": "x", "b": "y"}
    assert strict_pullback(f, {"c": "x"}) == strict_pullback(
        {"a": "x"}, {"c": "x", "d": "z"})
    assert strict_pullback(f, {"c": "x"}) != strict_pullback(f, {"c": "y"})


# -- act --------------------------------------------------------------------


INSTANCES = [
    standard_simplex(2, 4),
    standard_simplex(3, 3),
    bar(cyclic_monoid(2), 5),
    bar(truncated_free_monoid(1), 4),
]


@st.composite
def maps_into(draw):
    X = draw(st.sampled_from(INSTANCES))
    dom = draw(st.integers(0, X.truncation))
    cod = draw(st.integers(0, X.truncation))
    values = sorted(draw(st.lists(st.integers(0, cod), min_size=dom + 1,
                                  max_size=dom + 1)))
    return SimplexMap(tuple(values), cod + 1), X


@given(maps_into())
def test_act_matches_one_generator_at_a_time(case):
    alpha, X = case
    got = act(alpha, X)
    want = reference_act(alpha, X)
    assert got == want
    assert list(got) == list(X.level(alpha.cod_dim))


def test_act_refuses_tables_that_are_not_maps():
    X = standard_simplex(1, 2)
    face = {k: dict(v) for k, v in X.face.items()}
    del face[(1, 0)]["01"]
    Y = TruncatedSSet(2, X.levels, face, X.degeneracy)
    with pytest.raises(InputError) as exc:
        act(SimplexMap((1,), 3), Y)
    assert str(exc.value) == (
        "face table (1, 0) is not a map from level 1 into level 0; "
        "input tables are not simplicial")
    # an entry no cell of level 0 reaches: the table is still not a map
    degeneracy = {k: dict(v) for k, v in X.degeneracy.items()}
    del degeneracy[(1, 1)]["01"]
    Z = TruncatedSSet(2, X.levels, X.face, degeneracy)
    constant = SimplexMap((0, 0, 0), 1)
    assert reference_act(constant, Z) == {"0": "000", "1": "111"}
    with pytest.raises(InputError) as exc:
        act(constant, Z)
    assert str(exc.value) == (
        "degeneracy table (1, 1) is not a map from level 1 into level 2; "
        "input tables are not simplicial")


# -- theorem_verify ---------------------------------------------------------


def _sha(report):
    return hashlib.sha256(io.save_report(report).encode()).hexdigest()


@pytest.mark.parametrize("X, digest", [
    (bar(cyclic_monoid(2), 7),
     "a2151564b5ef42ce9267a9ac4339c83e548e5339391d46639e67327c7d9f07d9"),
    (random_coskeletal_sset(2, 1, 4, 0),
     "0393d7fa8922043e175acf2dc56606103ae932f9174ab34395f40c65453c45aa"),
])
def test_theorem_entries_are_both_sweeps(X, digest):
    report = theorem_verify(X)
    assert report.entries == segal_check(edgewise(X)).entries + \
        two_segal_check(X).entries
    # the canonical bytes the separate sweeps gave before
    assert _sha(report) == digest


def test_theorem_raises_the_first_error_of_the_sweeps():
    # two broken faces: level 4 breaks the unmatched polygon comparison
    # (4, 0, 2), level 7 the matched one at (7, 2, 5); the 2-Segal sweep
    # meets (4, 0, 2) first, and the subdivision's sweep meets neither
    X = bar(cyclic_monoid(2), 7)
    face = {k: dict(v) for k, v in X.face.items()}
    face[(4, 4)]["e|g|g|e"] = "e|e|e"
    face[(7, 1)]["g|g|e|g|g|g|g"] = "g|g|e|g|e|g"
    Y = TruncatedSSet(X.truncation, X.levels, face, X.degeneracy)
    with pytest.raises(InputError) as exc:
        theorem_verify(Y)
    assert str(exc.value) == (
        "two_segal comparison at (4, 0, 2) leaves the pullback at cell "
        "'e|g|g|e'; input tables are not simplicial")


# -- CheckReport.entry ------------------------------------------------------


def test_entry_lookup_keeps_first_match_and_key_error():
    rows = [CheckEntry("segal", (2, 1), 4, 4, "pass"),
            CheckEntry("segal", (2, 1), 4, 5, "fail"),
            CheckEntry("two_segal", (3, 0, 2), 9, 9, "pass")]
    report = CheckReport("r", "set", tuple(rows), {"overall": "fail"})
    assert report.entry("segal", [2, 1]) is rows[0]
    assert report.entry("two_segal", (3, 0, 2)) is rows[2]
    with pytest.raises(KeyError) as exc:
        report.entry("segal", (3, 1))
    assert exc.value.args == (("segal", (3, 1)),)
