import pytest

from edgewise.cat import (
    _triple_id,
    FinCategory,
    PartialMonoid,
    bar,
    canonical_partial_iso,
    canonical_tw_iso,
    chain_poset,
    cyclic_monoid,
    monoid_category,
    nerve,
    opposite_category,
    poset_category,
    product_category,
    span_category,
    truncated_free_monoid,
    twisted_arrow,
    validate_category,
    validate_partial_monoid,
)
from edgewise.corpus import standard_corpus
from edgewise.errors import InputError
from edgewise.sset import (SimplicialMap, edgewise, iso_check, op_reverse,
                           validate)


def weak_only_monoid():
    # (x*x)*x is defined but x*(x*x) is not: strong associativity fails
    elements = ("e", "x", "y")
    product = {("e", m): m for m in elements}
    product.update({(m, "e"): m for m in elements})
    product[("x", "x")] = "y"
    product[("y", "x")] = "e"
    return PartialMonoid(elements, "e", product, name="weak-only")


def test_named_categories_validate():
    for A in (chain_poset(0), chain_poset(2),
              monoid_category(cyclic_monoid(3)),
              product_category(chain_poset(1), chain_poset(1))):
        assert validate_category(A) == []


def test_validate_category_spots_a_broken_unit():
    A = chain_poset(1)
    compose = dict(A.compose)
    compose[("0<1", "0<0")] = "0<0"
    broken = FinCategory(A.objects, A.morphisms, A.src, A.tgt,
                         A.identity, compose)
    laws = {v.law for v in validate_category(broken)}
    assert "unit" in laws or "composite-endpoints" in laws


def test_validate_category_reports_stray_compose_keys_last():
    A = chain_poset(1)
    compose = dict(A.compose)
    compose[("0<1", "0<0")] = "0<0"
    unit_broken = FinCategory(A.objects, A.morphisms, A.src, A.tgt,
                              A.identity, compose)
    compose[("zz", "0<1")] = "0<1"
    compose[("0<0", "yy")] = "0<0"
    broken = FinCategory(A.objects, A.morphisms, A.src, A.tgt,
                         A.identity, compose)
    got = validate_category(broken)
    assert got[:-2] == validate_category(unit_broken) != []
    assert [(v.law, v.witness) for v in got[-2:]] == \
        [("stray-entry", ("zz", "0<1")), ("stray-entry", ("0<0", "yy"))]


def test_nerve_of_arrow_category_sizes():
    X = nerve(chain_poset(1), 2)
    assert X.level_sizes() == (2, 3, 4)
    assert validate(X) == []


def test_nerve_of_cyclic_group_sizes():
    X = nerve(monoid_category(cyclic_monoid(2)), 2)
    assert X.level_sizes() == (1, 2, 4)
    assert validate(X) == []


def test_nerve_faces_compose_adjacent_entries():
    A = monoid_category(cyclic_monoid(4))
    X = nerve(A, 2)
    # inner face multiplies along the path, left entry first
    assert X.face_map(2, 1)["g|g2"] == "g3"
    assert X.face_map(2, 0)["g|g2"] == "g2"
    assert X.face_map(2, 2)["g|g2"] == "g"


def test_twisted_arrow_of_arrow_category():
    T = twisted_arrow(chain_poset(1))
    assert len(T.objects) == 3
    assert len(T.morphisms) == 5
    assert validate_category(T) == []


def test_twisted_arrow_of_small_group():
    T = twisted_arrow(monoid_category(cyclic_monoid(2)))
    assert validate_category(T) == []
    # every object pair carries exactly two factorizations
    assert all(len(T.hom(a, b)) == 2 for a in T.objects for b in T.objects)


def test_canonical_tw_iso_passes_iso_check():
    for A in (chain_poset(1), chain_poset(2),
              monoid_category(cyclic_monoid(2))):
        assert iso_check(canonical_tw_iso(A, 1)) == []
    assert iso_check(canonical_tw_iso(chain_poset(1), 2)) == []


def test_partial_monoid_validators():
    for M in (truncated_free_monoid(0), truncated_free_monoid(3),
              cyclic_monoid(4)):
        assert validate_partial_monoid(M) == []
    bad = weak_only_monoid()
    laws = [v for v in validate_partial_monoid(bad)
            if v.law == "strong-associativity"]
    assert ("x", "x", "x") in [v.witness for v in laws]


def test_bar_of_truncated_free_monoid_sizes():
    X = bar(truncated_free_monoid(1), 3)
    assert X.level_sizes() == (1, 2, 3, 4)
    assert validate(X) == []
    assert X.face_map(2, 1)["a|e"] == "a"
    assert X.degeneracy_map(1, 0)["a"] == "e|a"


def test_bar_of_weak_only_monoid_breaks():
    # the totality gap appears exactly where the missing bracketing would
    X = bar(weak_only_monoid(), 3)
    problems = validate(X)
    assert problems != []
    assert any(v.identity == "totality" and v.cell == "x|x|x"
               for v in problems)


def test_span_category_of_tfm1():
    S = span_category(truncated_free_monoid(1))
    assert len(S.objects) == 2
    assert len(S.morphisms) == 4
    assert len(S.hom("e", "a")) == 2
    assert validate_category(S) == []


def test_span_category_of_group_validates():
    assert validate_category(span_category(cyclic_monoid(3))) == []


def test_canonical_partial_iso_sizes_and_iso_check():
    f = canonical_partial_iso(truncated_free_monoid(1), 2)
    assert f.source.level_sizes() == (2, 4, 6)
    assert f.target.level_sizes() == (2, 4, 6)
    assert iso_check(f) == []


def test_canonical_partial_iso_for_a_group():
    assert iso_check(canonical_partial_iso(cyclic_monoid(2), 2)) == []


def test_bar_of_total_monoid_matches_one_object_nerve():
    M = cyclic_monoid(3)
    X = bar(M, 3)
    Y = nerve(monoid_category(M), 3)
    comps = [{"*": "o"}]
    comps += [{c: c for c in X.level(n)} for n in range(1, 4)]
    assert iso_check(SimplicialMap(X, Y, tuple(comps))) == []


def test_reversed_nerve_is_nerve_of_opposite():
    A = chain_poset(2)
    X = op_reverse(nerve(A, 3))
    Y = nerve(opposite_category(A), 3)
    comps = [{c: c for c in X.level(0)}]
    for n in range(1, 4):
        comps.append({c: "|".join(reversed(c.split("|")))
                      for c in X.level(n)})
    assert iso_check(SimplicialMap(X, Y, tuple(comps))) == []


def test_poset_category_rejects_non_posets():
    with pytest.raises(InputError):
        poset_category(("a", "b"), {("a", "a"), ("b", "b"),
                                    ("a", "b"), ("b", "a")})
    with pytest.raises(InputError):
        poset_category(("a",), set())


def test_monoid_category_requires_total_product():
    with pytest.raises(InputError):
        monoid_category(truncated_free_monoid(1))


# -- the two canonical comparisons against their own loops --------------------


def reference_tw_components(A, truncation):
    """``canonical_tw_iso``'s components as its own loop built them."""
    source = edgewise(nerve(A, 2 * truncation + 1))
    comps = [{c: c for c in source.level(0)}]
    for n in range(1, truncation + 1):
        comp = {}
        for c in source.level(n):
            fs = c.split("|")
            mid = fs[n]
            entries = []
            g = mid
            for i in range(1, n + 1):
                u, v = fs[n - i], fs[n + i]
                entries.append(_triple_id(g, u, v))
                g = A.compose[(v, A.compose[(g, u)])]
            comp[c] = "|".join(entries)
        comps.append(comp)
    return tuple(comps)


def reference_partial_components(M, truncation):
    """``canonical_partial_iso``'s components as its own loop built them."""
    source = edgewise(bar(M, 2 * truncation + 1))
    comps = [{c: c for c in source.level(0)}]
    for n in range(1, truncation + 1):
        comp = {}
        for c in source.level(n):
            ms = c.split("|")
            entries = []
            g = ms[n]
            for i in range(1, n + 1):
                m1, m2 = ms[n - i], ms[n + i]
                entries.append(_triple_id(m1, g, m2))
                g = M.multiply(M.multiply(m1, g), m2)
            comp[c] = "|".join(entries)
        comps.append(comp)
    return tuple(comps)


def test_canonical_comparisons_match_their_own_loops():
    seen = set()
    for ci in standard_corpus():
        t = (ci.sset.truncation - 1) // 2
        if ci.kind == "nerve":
            f = canonical_tw_iso(ci.origin, t)
            want = reference_tw_components(ci.origin, t)
        elif ci.kind == "bar":
            f = canonical_partial_iso(ci.origin, t)
            want = reference_partial_components(ci.origin, t)
        else:
            continue
        seen.add(ci.kind)
        assert f.components == want, ci.name
        assert [list(c) for c in f.components] == [list(c) for c in want]
    assert seen == {"nerve", "bar"}
