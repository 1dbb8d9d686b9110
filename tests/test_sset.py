from functools import cache

import pytest

from edgewise.delta import SimplexMap, all_monotone_maps, coface, compose, identity
from edgewise.errors import InputError
from edgewise.groupoid import act_gpd, discrete_sgpd, s_construction
from edgewise.sset import (
    SimplicialMap,
    TruncatedSSet,
    _in_range,
    act,
    act_positions,
    edgewise,
    edgewise_map,
    iso_check,
    nondegenerate_cells,
    op_reverse,
    simplicial_map_violations,
    standard_simplex,
    strict_pullback,
    structure_maps,
    validate,
)


def interval(truncation=1):
    return standard_simplex(1, truncation)


def test_standard_simplices_validate():
    for k in range(4):
        for N in range(4):
            assert validate(standard_simplex(k, N)) == []


def test_constructor_rejects_malformed_levels():
    with pytest.raises(InputError):
        TruncatedSSet(1, [["v"]], {}, {})
    with pytest.raises(InputError):
        TruncatedSSet(0, [["v", "v"]], {}, {})


def test_validate_flags_exactly_the_touched_identities():
    X = interval()
    face = {k: dict(v) for k, v in X.face.items()}
    face[(1, 1)]["00"] = "1"
    broken = TruncatedSSet(1, X.levels, face, X.degeneracy)
    got = validate(broken)
    assert [(v.identity, v.level, v.indices, v.cell) for v in got] == \
        [("ds", 0, (1, 0), "0")]


def test_validate_flags_missing_and_foreign_values():
    X = interval()
    face = {k: dict(v) for k, v in X.face.items()}
    del face[(1, 0)]["01"]
    face[(1, 1)]["11"] = "zz"
    broken = TruncatedSSet(1, X.levels, face, X.degeneracy)
    idents = {(v.identity, v.cell) for v in validate(broken)}
    assert ("totality", "01") in idents
    assert ("totality", "11") in idents


def test_act_on_interval_vertex():
    # restricting the edge along its source vertex
    assert act(coface(1, 1), interval())["01"] == "0"
    assert act(coface(0, 1), interval())["01"] == "1"


def test_act_of_identity_and_functoriality():
    X = standard_simplex(2, 3)
    for n in range(4):
        assert act(identity(n), X) == {c: c for c in X.level(n)}
    for n in range(3):
        for m in range(3):
            for p in range(3):
                for f in all_monotone_maps(n, m):
                    for g in all_monotone_maps(m, p):
                        composed = act(compose(g, f), X)
                        gtab, ftab = act(g, X), act(f, X)
                        assert composed == {c: ftab[gtab[c]] for c in X.level(p)}


def test_act_rejects_maps_beyond_truncation():
    with pytest.raises(InputError):
        act(identity(4), standard_simplex(2, 3))


def test_strict_pullback_diagonal():
    f = {x: x for x in "abc"}
    p = strict_pullback(f, f)
    assert p.pairs == (("a", "a"), ("b", "b"), ("c", "c"))


def test_strict_pullback_codomain_mismatch():
    with pytest.raises(InputError):
        strict_pullback({"x": "c"}, {"y": "c"}, codomain=["d"])


@pytest.mark.parametrize("args", [
    ({"a": []}, {}), (None, {}), ({}, [("y", "c")]), ({}, {"y": {}}),
    ({"x": "c"}, {"y": "c"}, 3), ({"x": "c"}, {"y": "c"}, [[]])])
def test_strict_pullback_refuses_what_is_not_two_tables(args):
    with pytest.raises(InputError):
        strict_pullback(*args)


def test_edgewise_of_triangle_counts():
    E = edgewise(standard_simplex(2, 5))
    assert validate(E) == []
    assert E.level_sizes() == (6, 15, 28)
    assert set(E.level(0)) == {"00", "01", "02", "11", "12", "22"}
    nd = [len(nondegenerate_cells(E, n)) for n in range(3)]
    assert nd == [6, 9, 4]
    # Euler characteristic of a subdivided disc
    assert nd[0] - nd[1] + nd[2] == 1


def test_edgewise_top_cell_counts_are_powers_of_two():
    for k in range(1, 4):
        E = edgewise(standard_simplex(k, 2 * k + 1))
        assert len(nondegenerate_cells(E, k)) == 2 ** k


def test_edgewise_needs_an_odd_level():
    with pytest.raises(InputError):
        edgewise(standard_simplex(2, 0))


def test_op_reverse_validates_and_is_an_involution():
    X = standard_simplex(2, 4)
    R = op_reverse(X)
    assert validate(R) == []
    assert op_reverse(R) == X
    assert R.face_map(1, 0) == X.face_map(1, 1)


def test_nondegenerate_edges_of_triangle():
    assert nondegenerate_cells(standard_simplex(2, 2), 1) == \
        ("01", "02", "12")


@pytest.mark.parametrize("n", [3, 4, -1])
def test_nondegenerate_cells_refuse_a_level_outside_the_truncation(n):
    X = standard_simplex(1, 2)
    assert nondegenerate_cells(X, 2) == ()
    with pytest.raises(InputError) as caught:
        nondegenerate_cells(X, n)
    assert str(caught.value) == f"level {n} beyond truncation 2"


@pytest.mark.parametrize("components, level, kind", [
    (((), (), ()), 0, "tuple"),
    ((5, {}, {}), 0, "int"),
    (({"0": "0", "1": "1"}, 7, {}), 1, "int"),
    (({"0": "0", "1": "1"}, {}, ()), 2, "tuple"),
])
def test_simplicial_map_refuses_components_that_are_not_mappings(
        components, level, kind):
    X = standard_simplex(1, 2)
    f = SimplicialMap(X, X, components)
    for check in (simplicial_map_violations, iso_check, edgewise_map):
        with pytest.raises(InputError) as caught:
            check(f)
        assert str(caught.value) == (f"component at level {level} must be "
                                     f"a mapping of cells, not {kind}")


def test_simplicial_map_refuses_components_that_are_not_a_sequence():
    X = standard_simplex(1, 2)
    f = SimplicialMap(X, X, None)
    for check in (simplicial_map_violations, iso_check, edgewise_map):
        with pytest.raises(InputError) as caught:
            check(f)
        assert str(caught.value) == ("components must be a sequence, one "
                                     "mapping per level, not NoneType")


@pytest.mark.parametrize("count", [2, 5])
def test_edgewise_map_refuses_a_component_count_that_is_not_the_level_count(
        count):
    X = standard_simplex(1, 3)
    f = SimplicialMap(X, X, ({},) * count)
    with pytest.raises(InputError) as caught:
        edgewise_map(f)
    assert str(caught.value) == "expected 4 components"
    assert [v.detail for v in simplicial_map_violations(f)] == \
        ["expected 4 components"]


def _with_face_value(X, value):
    face = {k: dict(v) for k, v in X.face.items()}
    face[(1, 0)]["01"] = value
    return TruncatedSSet(X.truncation, X.levels, face, X.degeneracy)


def test_validate_takes_an_unhashable_value_for_no_cell():
    X = standard_simplex(1, 2)
    got = [(v.identity, v.level, v.indices, v.cell, v.detail)
           for v in validate(_with_face_value(X, ["x"]))]
    # the identities through it take the cell as missing, as for None
    assert got == [("totality", 1, (0,), "01", "face value ['x'] not a cell")]
    assert [v.detail for v in validate(_with_face_value(X, None))] == \
        ["face entry missing"]


def test_simplicial_map_takes_an_unhashable_image_for_no_cell():
    X = standard_simplex(1, 2)
    comps = [{c: c for c in X.level(n)} for n in range(3)]
    comps[1]["01"] = ["x"]
    f = SimplicialMap(X, X, comps)
    want = [("totality", 1, "01", "image ['x'] not a cell of the target")]
    for check in (simplicial_map_violations, iso_check):
        assert [(v.identity, v.level, v.cell, v.detail)
                for v in check(f)] == want
    # a source whose face sends a cell to an unhashable value: the
    # naturality squares through it take that cell as missing
    Y = _with_face_value(X, ["x"])
    ident = SimplicialMap(Y, Y, [{c: c for c in X.level(n)}
                                 for n in range(3)])
    assert simplicial_map_violations(ident) == []


def edge_inclusion_map(values):
    # the simplicial map of an edge of the triangle, built by naming
    alpha = SimplexMap(values, 3)
    src = standard_simplex(1, 3)
    tgt = standard_simplex(2, 3)
    comps = []
    for n in range(4):
        comp = {}
        for c in src.level(n):
            vals = tuple(int(ch) for ch in c)
            comp[c] = "".join(str(alpha(v)) for v in vals)
        comps.append(comp)
    return SimplicialMap(src, tgt, comps)


def test_simplicial_map_naturality_and_subdivision():
    f = edge_inclusion_map((0, 2))
    assert simplicial_map_violations(f) == []
    assert simplicial_map_violations(edgewise_map(f)) == []


def test_iso_check_catches_a_broken_component():
    X = interval()
    ident = SimplicialMap(X, X, ({"0": "0", "1": "1"},
                                 {c: c for c in X.level(1)}))
    assert iso_check(ident) == []
    swapped = SimplicialMap(X, X, ({"0": "1", "1": "1"},
                                   {c: c for c in X.level(1)}))
    problems = iso_check(swapped)
    assert any(v.identity == "bijectivity" for v in problems)
    assert any(v.identity.startswith("naturality") for v in problems)


def test_subdivision_and_reversal_share_the_level_index():
    X = standard_simplex(2, 5)
    E, R = edgewise(X), op_reverse(X)
    assert all(E._index[n] is X._index[2 * n + 1]
               for n in range(E.truncation + 1))
    assert all(r is x for r, x in zip(R._index, X._index))
    assert all(R._store("face")[(n, i)] is X._store("face")[(n, n - i)]
               for n, i in R._store("face"))
    assert E == TruncatedSSet(E.truncation, E.levels, E.face, E.degeneracy)


# -- the index set of the structure maps ------------------------------------


@cache
def _s_construction(truncation):
    return s_construction(2, truncation)


@pytest.mark.parametrize("N", range(7))
def test_structure_maps_list_faces_then_degeneracies_in_store_order(N):
    faces = [(n, i) for n in range(1, N + 1) for i in range(n + 1)]
    degeneracies = [(n, i) for n in range(N) for i in range(n + 1)]
    assert len(faces) == N * (N + 3) // 2
    assert len(degeneracies) == N * (N + 1) // 2
    assert list(structure_maps(N)) == \
        [("face", n, i) for n, i in faces] + \
        [("degeneracy", n, i) for n, i in degeneracies]
    X = standard_simplex(3, N)
    assert list(X.face) == faces and list(X.degeneracy) == degeneracies
    M = min(N, 4)
    S = _s_construction(M)
    assert [("face", *key) for key in S.face] + \
        [("degeneracy", *key) for key in S.degeneracy] == \
        list(structure_maps(M))


@pytest.mark.parametrize("N", range(7))
def test_in_range_is_membership_in_the_index_set(N):
    maps = set(structure_maps(N))
    for kind in ("face", "degeneracy"):
        for n in range(-1, N + 2):
            for i in range(-1, N + 2):
                assert _in_range(kind, n, i, N) == ((kind, n, i) in maps), \
                    (kind, n, i)


# -- act beyond the truncation ----------------------------------------------


@pytest.mark.parametrize("alpha", [
    SimplexMap((0, 1, 2, 3), 4),      # [3] -> [3]
    SimplexMap((0,), 4),              # [0] -> [3]
    SimplexMap((0, 0, 0, 0), 1),      # [3] -> [0]
    SimplexMap((0, 1, 2), 4),         # [2] -> [3]
])
def test_both_tiers_refuse_a_map_beyond_the_truncation_alike(alpha):
    X = standard_simplex(1, 2)
    Y = discrete_sgpd(X)
    message = (f"act needs levels {alpha.dom_dim} and {alpha.cod_dim} "
               "within truncation 2")
    for call in (lambda: act_positions(alpha, X), lambda: act(alpha, X),
                 lambda: act_gpd(alpha, Y),
                 lambda: next(X.generator_maps(alpha)),
                 lambda: next(Y.generator_maps(alpha))):
        with pytest.raises(InputError) as caught:
            call()
        assert str(caught.value) == message
