"""Groupoid semantics: equivalences, iso-comma squares, and the
simplicial groupoid of triangular arrays."""

import dataclasses
import json
from itertools import product

import pytest

from edgewise import groupoid, io
from edgewise.cat import chain_poset, nerve
from edgewise.checks import segal_check, two_segal_check
from edgewise.corpus import coskeletal_from_graph, standard_corpus
from edgewise.delta import all_monotone_maps
from edgewise.errors import InputError
from edgewise.groupoid import (
    FinGroupoid,
    Functor,
    SgpdBetaGamma,
    act_gpd,
    compose_functors,
    discrete_sgpd,
    equivalence_verdict,
    esd_gpd,
    functor_violations,
    groupoid_equivalence,
    identity_functor,
    iso_comma,
    s_construction,
    sgpd_beta_gamma_equality,
    sgpd_segal_check,
    sgpd_segal_map,
    sgpd_two_segal_check,
    sgpd_two_segal_map,
    validate_groupoid,
    validate_sgpd,
)
from edgewise.sset import edgewise
from test_gpd_index import (_retarget_one_image, _stray_composite,
                            _swap_one_image, _twist_one_face, rebuilt)


def point_groupoid():
    return FinGroupoid(("*",), ("i",), {"i": "*"}, {"i": "*"}, {"*": "i"},
                       {("i", "i"): "i"}, name="pt", inverse={"i": "i"})


def pair_groupoid():
    """Two objects, one iso between them: contractible but not discrete."""
    compose = {
        ("ix", "ix"): "ix", ("iy", "iy"): "iy",
        ("u", "ix"): "u", ("iy", "u"): "u",
        ("v", "iy"): "v", ("ix", "v"): "v",
        ("v", "u"): "ix", ("u", "v"): "iy",
    }
    return FinGroupoid(
        ("x", "y"), ("ix", "iy", "u", "v"),
        {"ix": "x", "iy": "y", "u": "x", "v": "y"},
        {"ix": "x", "iy": "y", "u": "y", "v": "x"},
        {"x": "ix", "y": "iy"}, compose, name="pair",
        inverse={"ix": "ix", "iy": "iy", "u": "v", "v": "u"})


def flip_plus_point():
    """An object with one nontrivial automorphism, plus a lone object."""
    compose = {
        ("ix", "ix"): "ix", ("ix", "s"): "s", ("s", "ix"): "s",
        ("s", "s"): "ix", ("iy", "iy"): "iy",
    }
    return FinGroupoid(
        ("x", "y"), ("ix", "s", "iy"),
        {"ix": "x", "s": "x", "iy": "y"},
        {"ix": "x", "s": "x", "iy": "y"},
        {"x": "ix", "y": "iy"}, compose, name="flip+pt",
        inverse={"ix": "ix", "s": "s", "iy": "iy"})


def test_groupoid_validation_and_inverse_laws():
    assert validate_groupoid(pair_groupoid()) == []
    assert validate_groupoid(flip_plus_point()) == []
    G = pair_groupoid()
    inverse = {**G.inverse, "u": "u"}
    laws = {v.law for v in validate_groupoid(
        dataclasses.replace(G, inverse=inverse))}
    assert "inverse-endpoints" in laws or "inverse-law" in laws
    del inverse["v"]
    assert any(v.law == "inverse-totality" for v in validate_groupoid(
        dataclasses.replace(G, inverse=inverse)))


def test_identity_and_skeleton_inclusion_are_equivalences():
    G = pair_groupoid()
    assert groupoid_equivalence(identity_functor(G)) == []
    skeleton = Functor(point_groupoid(), G, {"*": "x"}, {"i": "ix"},
                       name="skel")
    assert functor_violations(skeleton) == []
    assert equivalence_verdict(skeleton) == ("pass", None)


def test_collapse_of_distinct_objects_fails_faithfully():
    # the flip automorphism and the identity become parallel and equal
    F = Functor(flip_plus_point(), point_groupoid(),
                {"x": "*", "y": "*"},
                {"ix": "i", "s": "i", "iy": "i"}, name="collapse")
    assert functor_violations(F) == []
    violations = groupoid_equivalence(F)
    faithful = [v for v in violations if v.law == "faithful"]
    assert faithful
    assert set(faithful[0].witness) == {"ix", "s"}


def test_missed_component_fails_essential_surjectivity():
    disc = FinGroupoid(
        ("a", "b"), ("ia", "ib"), {"ia": "a", "ib": "b"},
        {"ia": "a", "ib": "b"}, {"a": "ia", "b": "ib"},
        {("ia", "ia"): "ia", ("ib", "ib"): "ib"}, name="disc2",
        inverse={"ia": "ia", "ib": "ib"})
    F = Functor(point_groupoid(), disc, {"*": "a"}, {"i": "ia"})
    verdict, witness = equivalence_verdict(F)
    assert verdict == "fail"
    assert witness == ("essentially-surjective", ("b",))


def test_iso_comma_over_terminal_is_the_product():
    T = point_groupoid()
    A, B = pair_groupoid(), flip_plus_point()
    FA = Functor(A, T, {a: "*" for a in A.objects},
                 {f: "i" for f in A.morphisms})
    FB = Functor(B, T, {b: "*" for b in B.objects},
                 {f: "i" for f in B.morphisms})
    IC = iso_comma(FA, FB)
    assert validate_groupoid(IC.groupoid) == []
    assert len(IC.groupoid.objects) == len(A.objects) * len(B.objects)
    assert len(IC.groupoid.morphisms) == \
        len(A.morphisms) * len(B.morphisms)


def test_iso_comma_of_identities_is_equivalent_to_the_groupoid():
    G = pair_groupoid()
    IC = iso_comma(identity_functor(G), identity_functor(G))
    assert validate_groupoid(IC.groupoid) == []
    diag = Functor(G, IC.groupoid,
                   {a: IC.obj_id(a, a, G.identity[a]) for a in G.objects},
                   {f: f"{f}&{f}&{G.identity[G.src[f]]}"
                    for f in G.morphisms}, name="diag")
    assert functor_violations(diag) == []
    assert equivalence_verdict(diag) == ("pass", None)


def test_iso_comma_invariant_under_natural_isomorphism():
    # F and F2 pick the two objects of a contractible groupoid; the
    # conjugation by the connecting iso matches the commas up
    C = pair_groupoid()
    T = point_groupoid()
    F = Functor(T, C, {"*": "x"}, {"i": "ix"}, name="at_x")
    F2 = Functor(T, C, {"*": "y"}, {"i": "iy"}, name="at_y")
    G = identity_functor(C)
    IC = iso_comma(F, G)
    IC2 = iso_comma(F2, G)
    send = {g: C.compose[(g, "v")] for g in C.morphisms if C.src[g] == "x"}
    on_objects = {}
    on_morphisms = {}
    for oid, (a, b, gamma) in IC.obj_data.items():
        on_objects[oid] = IC2.obj_id(a, b, send[gamma])
    for mid, (p, q, gamma) in IC.mor_data.items():
        on_morphisms[mid] = f"{p}&{q}&{send[gamma]}"
    H = Functor(IC.groupoid, IC2.groupoid, on_objects, on_morphisms)
    assert functor_violations(H) == []
    assert equivalence_verdict(H) == ("pass", None)


def test_iso_comma_invariant_under_equivalent_leg():
    # collapse of the contractible pair onto the point is an
    # equivalence; precomposing a leg with it keeps the comma equivalent
    C = pair_groupoid()
    T = point_groupoid()
    A2 = pair_groupoid()
    E = Functor(A2, T, {a: "*" for a in A2.objects},
                {f: "i" for f in A2.morphisms}, name="crush")
    assert equivalence_verdict(E) == ("pass", None)
    F = Functor(T, C, {"*": "x"}, {"i": "ix"}, name="at_x")
    G = identity_functor(C)
    IC_small = iso_comma(F, G)
    IC_big = iso_comma(compose_functors(F, E), G)
    assert len(IC_big.groupoid.objects) <= 6
    on_objects = {oid: IC_small.obj_id(E.on_objects[a], b, gamma)
                  for oid, (a, b, gamma) in IC_big.obj_data.items()}
    on_morphisms = {mid: f"{E.on_morphisms[p]}&{q}&{gamma}"
                    for mid, (p, q, gamma) in IC_big.mor_data.items()}
    H = Functor(IC_big.groupoid, IC_small.groupoid, on_objects,
                on_morphisms)
    assert functor_violations(H) == []
    assert equivalence_verdict(H) == ("pass", None)


def test_iso_comma_rejects_reserved_separator_and_non_groupoids():
    weird = FinGroupoid(("a&b",), ("j",), {"j": "a&b"}, {"j": "a&b"},
                        {"a&b": "j"}, {("j", "j"): "j"},
                        inverse={"j": "j"})
    F = identity_functor(weird)
    with pytest.raises(InputError):
        iso_comma(F, F)


def tri3():
    return coskeletal_from_graph(
        "012", [("a", "0", "1"), ("b", "0", "2"), ("c", "1", "2")], 3,
        name="tri3")


def par3():
    return coskeletal_from_graph(
        "01", [("e", "0", "1"), ("f", "0", "1")], 3, name="par3")


def test_discrete_lift_validates_and_acts_like_the_set():
    X = tri3()
    D = discrete_sgpd(X)
    assert validate_sgpd(D) == []
    from edgewise.delta import SimplexMap
    from edgewise.sset import act
    alpha = SimplexMap((0, 2), 4)    # the long-ish edge of [3]
    assert act_gpd(alpha, D).on_objects == act(alpha, X)
    with pytest.raises(InputError):
        act_gpd(SimplexMap((0,), 5), D)


def test_validator_catches_a_tampered_face_functor():
    D = discrete_sgpd(tri3())
    F = D.face[(2, 1)]
    cell = F.source.objects[0]
    other = next(o for o in F.target.objects
                 if o != F.on_objects[cell])
    assert validate_sgpd(rebuilt(D, functors={("face", 2, 1): {
        "on_objects": {**F.on_objects, cell: other}}})) != []


def test_missing_structure_functors_raise_input_error():
    doc = json.loads(io.save_sgpd(discrete_sgpd(nerve(chain_poset(2), 3))))
    doc["face"] = {}
    Y = io.load_sgpd(json.dumps(doc))
    for run in (sgpd_segal_check, sgpd_two_segal_check, esd_gpd):
        with pytest.raises(InputError, match=r"face table \(\d, \d\) missing"):
            run(Y)


def test_subdivision_levels_reindex_and_validate():
    S = s_construction(2, 3)
    E = esd_gpd(S)
    assert E.truncation == 1
    assert E.level(0) is S.level(1)
    assert E.level(1) is S.level(3)
    assert validate_sgpd(E) == []
    with pytest.raises(InputError):
        esd_gpd(s_construction(2, 0))


def test_discrete_subdivision_matches_set_subdivision():
    X = tri3()
    E = edgewise(X)
    D = esd_gpd(discrete_sgpd(X))
    for (n, i), F in D.face.items():
        assert F.on_objects == E.face_map(n, i)
    for (n, i), F in D.degeneracy.items():
        assert F.on_objects == E.degeneracy_map(n, i)


def test_array_level_counts_and_bounds():
    S = s_construction(2, 3)
    assert validate_sgpd(S) == []
    assert [len(S.level(n).objects) for n in range(4)] == [1, 2, 3, 4]
    # every level is discrete at this cardinality
    assert [len(S.level(n).morphisms) for n in range(4)] == [1, 2, 3, 4]
    S31 = s_construction(3, 1)
    assert len(S31.level(1).objects) == 3
    assert len(S31.level(1).morphisms) == 4
    assert validate_sgpd(s_construction(3, 2)) == []
    for bad in ((0, 2), (4, 2), (2, 5), (2, -1), (2.0, 3), (3, 2.0),
                ("3", 2), (True, 2)):
        with pytest.raises(InputError):
            s_construction(*bad)


def test_s_construction_refuses_non_ints_before_any_level(monkeypatch):
    def no_level(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(groupoid, "_level_groupoid", no_level)
    for bad in ((2.0, 3), (3, 2.0), ("3", 2), (True, 2)):
        with pytest.raises(InputError, match="is not an int"):
            s_construction(*bad)


def test_arrays_are_two_segal_but_not_segal():
    S = s_construction(2, 3)
    r = sgpd_two_segal_check(S)
    assert r.summary == {
        "check": "two_segal",
        "mode": "full",
        "overall": "pass",
        "failures": 0,
        "certified_levels": [3, 3],
    }
    assert len(r.entries) == 6
    rs = sgpd_segal_check(S)
    assert rs.overall == "fail"
    e = rs.entry("segal", (2, 1))
    assert e.verdict == "fail"
    assert e.witness[0] == "essentially-surjective"


def test_array_subdivision_passes_level_one_segal():
    r = sgpd_segal_check(esd_gpd(s_construction(2, 3)))
    assert r.overall == "pass"
    assert r.summary["certified_levels"] == [1, 1]
    assert r.semantics == "groupoid"


def test_reduced_sweep_mode_and_bad_mode():
    S = s_construction(2, 3)
    full = sgpd_two_segal_check(S, mode="full")
    reduced = sgpd_two_segal_check(S, mode="reduced")
    assert reduced.summary["overall"] == full.summary["overall"]
    assert len(reduced.entries) < len(full.entries)
    with pytest.raises(InputError):
        sgpd_two_segal_check(S, mode="partial")


@pytest.mark.parametrize("make", [tri3, par3,
                                  lambda: nerve(chain_poset(2), 3)])
def test_discrete_consistency_with_set_verdicts(make):
    X = make()
    D = discrete_sgpd(X)
    set_report = two_segal_check(X)
    gpd_report = sgpd_two_segal_check(D)
    for e in gpd_report.entries:
        assert set_report.entry(e.kind, e.indices).verdict == e.verdict
    set_segal = segal_check(X)
    gpd_segal = sgpd_segal_check(D)
    for e in gpd_segal.entries:
        assert set_segal.entry(e.kind, e.indices).verdict == e.verdict


def test_discrete_witnesses_translate():
    X = par3()
    set_entry = two_segal_check(X).entry("two_segal", (3, 0, 2))
    gpd_entry = sgpd_two_segal_check(
        discrete_sgpd(X)).entry("two_segal", (3, 0, 2))
    assert set_entry.verdict == gpd_entry.verdict == "fail"
    # a collision of distinct cells reappears as a missing hom-set image
    assert set_entry.witness[0] == "collision"
    assert gpd_entry.witness[0] == "full"
    assert set(set_entry.witness[1]) <= set(gpd_entry.witness[1][:2])


def test_comparison_functors_swap_exactly_one_tier_up():
    S = s_construction(2, 3)
    res = sgpd_beta_gamma_equality(S, 1, 1)
    assert res.verdict == "pass"
    assert res.objects_equal and res.morphisms_equal
    assert sgpd_beta_gamma_equality(S, 2, 1).verdict == "out_of_truncation"
    with pytest.raises(InputError):
        sgpd_beta_gamma_equality(S, 1, 0)


@pytest.mark.parametrize("max_card, truncation", [(2, 4), (3, 3)])
def test_beta_gamma_at_every_index_of_the_s_construction(max_card,
                                                         truncation):
    # the polygon comparison of (m, j) sits at level 2m+1
    S = s_construction(max_card, truncation)
    for m in range(1, truncation + 1):
        for j in range(1, m + 1):
            res = sgpd_beta_gamma_equality(S, m, j)
            verdict = "pass" if 2 * m + 1 <= truncation else \
                "out_of_truncation"
            assert res == SgpdBetaGamma(m, j, verdict), res


def test_discrete_beta_gamma_matches_set_tier():
    X = tri3()
    res = sgpd_beta_gamma_equality(discrete_sgpd(X), 1, 1)
    assert res.verdict == "pass"


def test_segal_map_reports_functor_sizes():
    D = discrete_sgpd(nerve(chain_poset(2), 3))
    comp = sgpd_segal_map(D, 2, 1)
    assert comp.verdict == "pass"
    assert comp.domain_size == len(D.level(2).objects)
    assert comp.codomain_size == len(comp.comma.groupoid.objects)
    with pytest.raises(InputError):
        sgpd_segal_map(D, 4, 1)


def _results(Y):
    """The four checks an invalid simplicial groupoid reaches, each run
    to its end or to its ``InputError``; what each gave: its value, or
    the error's text."""
    out = []
    for check in (sgpd_segal_check, sgpd_two_segal_check,
                  lambda Z: [sgpd_beta_gamma_equality(Z, m, j)
                             for m in (1, 2) for j in range(1, m + 1)],
                  esd_gpd):
        try:
            out.append(check(Y))
        except InputError as e:
            out.append(str(e))
    return out


def _checks(Y):
    """``_results``, with each value that was returned as "returned"."""
    return [r if isinstance(r, str) else "returned" for r in _results(Y)]


def _broken_functor_entries(doc):
    """Every entry of every structure functor of the file, dropped or
    sent to an id the target level lacks or to another of its ids, and
    each entry of a level's inverse dropped: one file per change."""
    for kind in ("face", "degeneracy"):
        for key, functor in doc[kind].items():
            for part, table in functor.items():
                ids = sorted(set(table.values()))
                for entry, value in table.items():
                    for new in (None, "nope",
                                ids[0] if value != ids[0] else ids[-1]):
                        broken = json.loads(json.dumps(doc))
                        if new is None:
                            del broken[kind][key][part][entry]
                        else:
                            broken[kind][key][part][entry] = new
                        yield broken
    for n, level in enumerate(doc["levels"]):
        for entry in level["inverse"]:
            broken = json.loads(json.dumps(doc))
            del broken["levels"][n]["inverse"][entry]
            yield broken


def _broken_level_entries(doc):
    """Every entry of every level's compose, identity and inverse
    tables, dropped or sent to "nope" or to another morphism, every
    morphism's src and tgt sent to "nope" or to another object, and one
    composite recorded for a pair that is not composable: one file per
    change.  The loader refuses some of them."""
    for n, level in enumerate(doc["levels"]):
        ids = [m["id"] for m in level["morphisms"]]
        for part in ("compose", "identity", "inverse"):
            for entry, value in level[part].items():
                for new in (None, "nope",
                            ids[0] if value != ids[0] else ids[-1]):
                    broken = json.loads(json.dumps(doc))
                    if new is None:
                        del broken["levels"][n][part][entry]
                    else:
                        broken["levels"][n][part][entry] = new
                    yield broken
        objects = level["objects"]
        for k, record in enumerate(level["morphisms"]):
            for end in ("src", "tgt"):
                for new in ("nope", objects[0] if record[end] != objects[0]
                            else objects[-1]):
                    broken = json.loads(json.dumps(doc))
                    broken["levels"][n]["morphisms"][k][end] = new
                    yield broken
        if len(objects) > 1:
            broken = json.loads(json.dumps(doc))
            broken["levels"][n]["compose"][f"{ids[0]},{ids[-1]}"] = ids[0]
            yield broken


def test_one_broken_functor_entry_ends_in_input_error():
    doc = json.loads(io.save_sgpd(s_construction(2, 3)))
    outcomes = set()
    for broken in _broken_functor_entries(doc):
        outcomes.update(_checks(io.load_sgpd(json.dumps(broken))))
    assert "returned" in outcomes
    assert "on_morphisms of face(2,0) has no entry 'm0'; input tables " \
        "are not valid" in outcomes
    assert "inverse of level1 has no entry 'nope'; input tables are not " \
        "valid" in outcomes
    assert "inverse of level0 has no entry 'm0'; input tables are not " \
        "valid" in outcomes
    assert any(o.startswith("compose of level1 has no entry")
               for o in outcomes)


def test_every_image_outside_the_target_level_ends_in_input_error():
    # every entry of every structure functor sent to "nope": each check
    # raises, also where no row reads that entry
    doc = json.loads(io.save_sgpd(s_construction(2, 3)))
    checks = (sgpd_segal_check, sgpd_two_segal_check,
              lambda Y: sgpd_two_segal_check(Y, "reduced"),
              lambda Y: sgpd_beta_gamma_equality(Y, 1, 1),
              lambda Y: sgpd_beta_gamma_equality(Y, 2, 1))
    redirects = 0
    for kind in ("face", "degeneracy"):
        for key, functor in doc[kind].items():
            for part, table in functor.items():
                for entry in table:
                    broken = json.loads(json.dumps(doc))
                    broken[kind][key][part][entry] = "nope"
                    Y = io.load_sgpd(json.dumps(broken))
                    redirects += 1
                    for check in checks:
                        with pytest.raises(InputError):
                            check(Y)
    assert redirects == 86
    doc["face"]["1,0"]["on_objects"]["x0"] = "nope"
    Y = io.load_sgpd(json.dumps(doc))
    for check in checks[1:]:
        with pytest.raises(InputError) as exc:
            check(Y)
        assert str(exc.value) == "on_objects of face(1,0) sends 'x0' to " \
            "'nope', which is not in level 0; input tables are not valid"


def test_equivalence_of_a_functor_that_is_not_total_raises_input_error():
    F = s_construction(2, 2).face[(1, 0)]
    bare = Functor(F.source, F.target, {}, {})
    for check in (groupoid_equivalence, equivalence_verdict):
        with pytest.raises(InputError) as exc:
            check(bare)
        assert str(exc.value) == "on_objects of a functor has no entry " \
            "'x0'; input tables are not valid"
    named = Functor(F.source, F.target, dict(F.on_objects), {}, name="d")
    with pytest.raises(InputError) as exc:
        groupoid_equivalence(named)
    assert str(exc.value) == "on_morphisms of d has no entry 'm0'; input " \
        "tables are not valid"
    astray = Functor(F.source, F.target, {**F.on_objects, "x0": "nope"},
                     F.on_morphisms)
    with pytest.raises(InputError) as exc:
        equivalence_verdict(astray)
    assert str(exc.value) == "objects of S0 has no entry 'nope'; input " \
        "tables are not valid"
    assert equivalence_verdict(F) == equivalence_verdict(
        Functor(F.source, F.target, F.on_objects, F.on_morphisms))


def test_functor_tables_that_are_not_mappings_raise_input_error():
    A = s_construction(2, 2).levels[1]
    for tables, part in (((None, None), "on_objects"),
                         (({}, None), "on_morphisms"),
                         (([1], {}), "on_objects"),
                         ((A.identity, 0), "on_morphisms")):
        with pytest.raises(InputError) as exc:
            functor_violations(Functor(A, A, *tables, name="bad"))
        assert str(exc.value) == f"{part} of bad is not a table"
    with pytest.raises(InputError,
                       match="^on_objects of a functor is not a table$"):
        functor_violations(Functor(A, A, None, None))
    # what dict() takes is a table, as for FinCategory
    pairs = Functor(A, A, list(A.identity.items()), (), name="pairs")
    assert pairs.on_objects == A.identity and pairs.on_morphisms == {}


@pytest.mark.parametrize("bad", [None, [1], 0])
@pytest.mark.parametrize("part", ["on_objects", "on_morphisms"])
@pytest.mark.parametrize("kind, n, i", [("face", 1, 0),
                                        ("degeneracy", 0, 0)])
def test_structure_functor_tables_that_are_not_mappings_raise_input_error(
        kind, n, i, part, bad):
    Y = s_construction(2, 2)
    with pytest.raises(InputError) as exc:
        rebuilt(Y, functors={(kind, n, i): {part: bad}})
    assert str(exc.value) == \
        f"{part} of {Y._map(kind, n, i).name} is not a table"


def test_a_rebuilt_composite_is_walked_like_one_built_from_its_tables():
    # replace drops the bases a composite was built from, so a changed
    # table is walked, not vouched for by the bases it no longer chains
    Y = s_construction(3, 3)
    Z = esd_gpd(Y)
    assert Z._map("face", 1, 0)._bases
    F = Z._map("face", 1, 0)
    f = next(iter(F.source.morphisms))
    other = next(g for g in F.target.morphisms if g != F.on_morphisms[f])
    changed = dataclasses.replace(
        F, on_morphisms={**F.on_morphisms, f: other})
    fresh = Functor(F.source, F.target, dict(F.on_objects),
                    {**F.on_morphisms, f: other}, name=F.name)
    assert changed._bases is None
    assert changed._sound is fresh._sound is False

    def outcome(G):
        try:
            return io.save_report(sgpd_segal_check(dataclasses.replace(
                Z, face={**Z.face, (1, 0): G})))
        except InputError as exc:
            return str(exc)

    assert outcome(changed) == outcome(fresh) != outcome(F)


def test_iso_comma_of_a_leg_that_moves_endpoints_raises_input_error():
    # u: x -> y sent to the identity of x: its composites are defined,
    # but the iso-comma has no morphism inverting (u, id)
    G = pair_groupoid()
    bent = Functor(G, G, {"x": "x", "y": "y"},
                   {**{f: f for f in G.morphisms}, "u": "ix"}, name="bent")
    with pytest.raises(InputError, match="by signature has no entry"):
        iso_comma(bent, identity_functor(G))


def _refused(monkeypatch):
    """Refuse the row facts (``_factors_sound``) and the facts kept on
    functors and levels: every row builds its iso-comma and walks every
    composite of its comparison."""
    monkeypatch.setattr(groupoid, "_factors_sound", lambda *row: False)
    monkeypatch.setattr(Functor, "_sound", property(lambda F: False))
    for fact in ("_well_formed", "_valid"):
        monkeypatch.setattr(FinGroupoid, fact, property(lambda G: False))


def _differ_from_refused(monkeypatch, instances):
    """The ``_results`` of each instance that the real guard and facts
    and the refused ones do not give alike."""
    fast = [_results(Y) for Y in instances]
    with monkeypatch.context() as patch:
        _refused(patch)
        full = [_results(Y) for Y in instances]
    return [(k, a, b) for k, (a, b) in enumerate(zip(fast, full)) if a != b]


def test_graph_row_guard_gives_what_the_full_path_gives_on_broken_files(
        monkeypatch):
    doc = json.loads(io.save_sgpd(s_construction(2, 3)))

    instances = []
    for broken in (*_broken_functor_entries(doc),
                   *_broken_level_entries(doc)):
        try:
            instances.append(io.load_sgpd(json.dumps(broken)))
        except InputError:
            continue
    outcomes = {r for Y in instances for r in _checks(Y)}
    assert "returned" in outcomes and len(outcomes) > 10
    assert _differ_from_refused(monkeypatch, instances) == []


def test_graph_row_guard_gives_what_the_full_path_gives_on_clean_input(
        monkeypatch):
    # the corpus members the groupoid checks decide in well under a second
    corpus = [c.sset for c in standard_corpus()
              if max(c.sset.level_sizes()) <= 100]
    assert len(corpus) > 30

    instances = [s_construction(2, 4), s_construction(3, 3),
                 *map(discrete_sgpd, corpus)]
    assert _differ_from_refused(monkeypatch, instances) == []


def test_kept_facts_give_what_the_walks_give_on_corrupted_functors(
        monkeypatch):
    # faces that stop being functors, a face that is still a functor but
    # no longer meets the others, and a level with a stray composite
    instances = []
    for truncation, corrupt, n, i in (
            (2, _swap_one_image, 2, 0), (2, _swap_one_image, 2, 2),
            (2, _stray_composite, 2, 5), (3, _retarget_one_image, 3, 0),
            (3, _twist_one_face, 3, 0), (3, _swap_one_image, 2, 1),
            (3, _stray_composite, 3, 0)):
        instances.append(corrupt(s_construction(3, truncation), n, i))
    outcomes = [_checks(Y) for Y in instances]
    assert any("returned" in o for o in outcomes)
    assert any(r.startswith("comparison is not a functor")
               for o in outcomes for r in o)
    assert _differ_from_refused(monkeypatch, instances) == []


def _stray_across(Y, n, i=None):
    """Y with a composite "nowhere" recorded for a pair of level-n
    morphisms whose images under every face of level n are not
    composable: each face still keeps every composite, while their
    composites down to level 0 do not.  ``i`` is ignored; it matches
    the corruptions of ``test_gpd_index``."""
    A = Y.levels[n]
    faces = [Y.face[(n, k)] for k in range(n + 1)]
    g, f = next((g, f) for g in A.morphisms for f in A.morphisms
                if all(F.on_objects[A.src[g]] != F.on_objects[A.tgt[f]]
                       for F in faces))
    return rebuilt(Y, levels={n: {"compose": {**A.compose,
                                              (g, f): "nowhere"}}})


def test_kept_soundness_is_the_walk_on_every_act():
    mixed = 0
    for corrupt, n, i in ((None, 0, 0), (_swap_one_image, 2, 0),
                          (_retarget_one_image, 3, 0),
                          (_twist_one_face, 3, 0), (_stray_composite, 2, 5),
                          (_stray_across, 2, None), (_stray_across, 3, None)):
        Y = s_construction(3, 3)
        if corrupt is not None:
            Y = corrupt(Y, n, i)
        for alpha in (a for m, k in product(range(4), repeat=2)
                      for a in all_monotone_maps(m, k)):
            try:
                F = act_gpd(alpha, Y)
            except InputError:
                continue
            try:
                walked = not functor_violations(F)
            except KeyError:
                walked = False
            assert F._sound is walked, (corrupt, alpha)
            mixed += not walked and all(B._sound for B in F._bases)
    assert mixed


def test_one_clean_op_walks_each_structure_functor_at_most_once(
        monkeypatch):
    """The four checks of one S-construction op walk no composite: each
    structure functor is walked at most once, each level's laws are
    validated at most once, and no comparison's composites are walked."""
    walked, validated = [], []
    real_violations, real_validate = (groupoid.functor_violations,
                                      groupoid.validate_groupoid)

    def violations_spy(F, composites=None):
        if composites is None:
            walked.append(F)
        return real_violations(F, composites)

    def validate_spy(G):
        validated.append(G)
        return real_validate(G)

    monkeypatch.setattr(groupoid, "functor_violations", violations_spy)
    monkeypatch.setattr(groupoid, "validate_groupoid", validate_spy)
    Y = s_construction(3, 3)
    reports = (sgpd_segal_check(Y), sgpd_segal_check(esd_gpd(Y)),
               sgpd_beta_gamma_equality(Y, 1, 1), sgpd_two_segal_check(Y))
    assert [r.overall if hasattr(r, "overall") else r.verdict
            for r in reports] == ["fail", "pass", "pass", "pass"]
    bases = [*Y.face.values(), *Y.degeneracy.values()]
    assert walked and all(any(F is B for B in bases) for F in walked)
    assert len({id(F) for F in walked}) == len(walked)
    assert validated and len({id(G) for G in validated}) == len(validated)
    assert all(any(G is L for L in Y.levels) for G in validated)


def test_clean_graph_rows_build_no_iso_comma(monkeypatch):
    calls = []
    real = groupoid.iso_comma

    def counted(F, G):
        calls.append((F.name, G.name))
        return real(F, G)

    monkeypatch.setattr(groupoid, "iso_comma", counted)
    Y = s_construction(3, 3)
    for check, rows, built in ((sgpd_two_segal_check, 6, 2),
                               (sgpd_segal_check, 6, 3)):
        calls.clear()
        assert len(check(Y).entries) == rows
        assert len(calls) == built
    calls.clear()
    assert sgpd_beta_gamma_equality(Y, 1, 1).verdict == "pass"
    assert calls == []


def _graph_rows(Y):
    """(single-row map, groupoid, indices) of every graph row of Y and
    of its subdivision: Segal rows (m, m), adjacent rows (n, i, i+1) and
    long-edge rows (n, 0, n)."""
    E = esd_gpd(Y)
    rows = [(sgpd_segal_map, Z, (m, m))
            for Z in (Y, E) for m in range(1, Z.truncation + 1)]
    for n in range(3, Y.truncation + 1):
        rows += [(sgpd_two_segal_map, Y, (n, i, i + 1)) for i in range(n)]
        rows.append((sgpd_two_segal_map, Y, (n, 0, n)))
    return rows


@pytest.mark.parametrize("max_card, truncation", [(2, 4), (3, 3)])
def test_graph_rows_build_their_iso_comma_on_access(monkeypatch, max_card,
                                                    truncation):
    Y = s_construction(max_card, truncation)
    rows = _graph_rows(Y)
    fast = [row(Z, *idx) for row, Z, idx in rows]
    with monkeypatch.context() as patch:
        _refused(patch)
        full = [row(Z, *idx) for row, Z, idx in rows]
    for comp, ref in zip(fast, full):
        assert "comma" not in vars(comp) and "functor" not in vars(comp)
        assert comp.verdict == ref.verdict == "pass"
        assert comp.witness is ref.witness is None
        assert comp.codomain_size == ref.codomain_size == \
            len(comp.comma.groupoid.objects)
        assert comp.parts == ref.parts
        assert groupoid_equivalence(comp.functor) == []
        for part in ("on_objects", "on_morphisms", "name"):
            assert getattr(comp.functor, part) == getattr(ref.functor, part)
        assert comp.functor.source is ref.functor.source
        assert comp.comma.obj_data == ref.comma.obj_data
        assert comp.comma.mor_data == ref.comma.mor_data
        assert comp.comma.groupoid.objects == ref.comma.groupoid.objects
        assert comp.comma.groupoid.morphisms == ref.comma.groupoid.morphisms
