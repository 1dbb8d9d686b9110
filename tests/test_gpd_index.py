"""Indexed hom-sets and grouped joins in the groupoid tier.

``FinCategory.hom`` reads a (src, tgt) index, ``iso_comma`` pairs
morphisms only across matched source objects and computes composites
on lookup, ``_level_groupoid`` derives each morphism of arrays from
its top row and composes only morphisms that meet, the comparison
functors' composites are checked against the whole iso-comma, and
``validate_category`` walks only composable strings.  Each is compared
here with the plain nested-loop build it replaces, order included; the
S-construction outputs are pinned byte for byte, and at truncation 4
every level's morphism families are checked against every square.
"""

import dataclasses
import hashlib
import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from edgewise import groupoid, io
from edgewise.cat import (FinCategory, LawViolation, chain_poset,
                          twisted_arrow, validate_category)
from edgewise.corpus import random_category
from edgewise.errors import InputError
from edgewise.groupoid import (FinGroupoid, Functor, IsoComma, esd_gpd,
                               groupoid_equivalence, iso_classes, iso_comma,
                               s_construction, sgpd_beta_gamma_equality,
                               sgpd_segal_check, sgpd_segal_map,
                               sgpd_two_segal_check, sgpd_two_segal_map,
                               validate_groupoid)
from edgewise.groupoid import _level_groupoid

SMALL = settings(max_examples=40, deadline=None, derandomize=True)

# the one text with which ``iso_comma`` refuses its legs and levels
ISO_COMMA_ENTRY = "iso_comma needs well-formed groupoids and legs that " \
    "keep endpoints and identities; input tables are not valid"


@pytest.fixture(scope="module")
def S3():
    return s_construction(3, 3)


def scan_hom(A, a, b):
    return tuple(f for f in A.morphisms if A.src[f] == a and A.tgt[f] == b)


def _assert_hom_is_scan(A):
    ends = list(A.objects) + ["not-an-object"]
    for a in ends:
        for b in ends:
            assert A.hom(a, b) == scan_hom(A, a, b), (a, b)


@SMALL
@given(st.integers(0, 10 ** 6))
def test_hom_equals_linear_scan_on_random_categories(seed):
    _assert_hom_is_scan(random_category(seed, max_objects=4,
                                        max_morphisms=12))


def test_hom_equals_linear_scan_on_s_construction_levels(S3):
    for G in S3.levels:
        _assert_hom_is_scan(G)
    assert S3.levels[3].hom("x0", "not-an-object") == ()


# -- reference builds: the nested loops the grouped joins replace ----------


def reference_iso_comma(F, G):
    C = F.target
    objects, obj_data, obj_by_pair = [], {}, {}
    for a in F.source.objects:
        for b in G.source.objects:
            for gamma in scan_hom(C, F.on_objects[a], G.on_objects[b]):
                oid = IsoComma.obj_id(a, b, gamma)
                objects.append(oid)
                obj_data[oid] = (a, b, gamma)
                obj_by_pair.setdefault((a, b), []).append(oid)
    morphisms, mor_data, src, tgt, by_signature = [], {}, {}, {}, {}
    for p in F.source.morphisms:
        Fp_inv = C.inverse[F.on_morphisms[p]]
        for q in G.source.morphisms:
            Gq = G.on_morphisms[q]
            for oid in obj_by_pair.get((F.source.src[p],
                                        G.source.src[q]), ()):
                gamma = obj_data[oid][2]
                gamma2 = C.compose[(C.compose[(Gq, gamma)], Fp_inv)]
                mid = IsoComma.mor_id(p, q, gamma)
                morphisms.append(mid)
                mor_data[mid] = (p, q, gamma)
                src[mid] = oid
                tgt[mid] = IsoComma.obj_id(F.source.tgt[p],
                                           G.source.tgt[q], gamma2)
                by_signature[(p, q, oid)] = mid
    identity = {oid: by_signature[(F.source.identity[a],
                                   G.source.identity[b], oid)]
                for oid, (a, b, _) in obj_data.items()}
    compose = {}
    for m1 in morphisms:
        p1, q1, _ = mor_data[m1]
        for m2 in morphisms:
            if src[m2] != tgt[m1]:
                continue
            p2, q2, _ = mor_data[m2]
            compose[(m2, m1)] = by_signature[(
                F.source.compose[(p2, p1)], G.source.compose[(q2, q1)],
                src[m1])]
    inverse = {m: by_signature[(F.source.inverse[mor_data[m][0]],
                                G.source.inverse[mor_data[m][1]], tgt[m])]
               for m in morphisms}
    return objects, morphisms, src, tgt, identity, compose, inverse, \
        obj_data, mor_data


def _ordered(G):
    return (list(G.objects), list(G.morphisms), list(G.src.items()),
            list(G.tgt.items()), list(G.identity.items()),
            list(G.compose.items()), list(G.inverse.items()))


def _face_pairs(Y, n):
    """Pairs of faces out of level n, sharing level n-1."""
    return [(Y.face[(n, i)], Y.face[(n, j)])
            for i in range(n + 1) for j in range(n + 1)]


def _off_table_keys(morphisms, src, tgt):
    """Keys a compose table must not hold: pairs that do not compose,
    pairs naming a non-morphism, and keys that are not pairs."""
    m = morphisms[0]
    apart = [(g, f) for f in morphisms[:8] for g in morphisms
             if src[g] != tgt[f]][:50]
    return apart + [(m, "nowhere"), ("nowhere", m), (m,), (m, m, m), m,
                    None, ()]


def _assert_iso_comma_is_reference(F, G):
    IC = iso_comma(F, G)
    objects, morphisms, src, tgt, identity, compose, inverse, \
        obj_data, mor_data = reference_iso_comma(F, G)
    assert _ordered(IC.groupoid) == (
        objects, morphisms, list(src.items()), list(tgt.items()),
        list(identity.items()), list(compose.items()), list(inverse.items()))
    assert list(IC.obj_data.items()) == list(obj_data.items())
    assert list(IC.mor_data.items()) == list(mor_data.items())
    lazy = IC.groupoid.compose
    assert len(lazy) == len(compose)
    assert all(key in lazy for key in compose)
    for key in _off_table_keys(morphisms, src, tgt):
        assert (key in lazy) is False
        assert lazy.get(key) is None
        assert lazy.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            lazy[key]
    assert validate_groupoid(IC.groupoid) == []
    return IC


@pytest.mark.parametrize("n", [1, 2])
def test_iso_comma_equals_nested_loop_build(S3, n):
    # level 3 is checked without enumerating: see the test below
    for F, G in _face_pairs(S3, n):
        _assert_iso_comma_is_reference(F, G)


def test_iso_comma_composites_at_level_three_by_conjugation(S3):
    """Level 3 has ~10^7 composites in one iso-comma, so its table is
    sized from the morphisms' endpoints and sampled at seeded pairs."""
    rng = random.Random(3)
    for F, G in _face_pairs(S3, 3):
        IC = iso_comma(F, G)
        H = IC.groupoid
        leaving = Counter(H.src.values())
        assert len(H.compose) == sum(leaving[H.tgt[m]] for m in H.morphisms)
        starts = {}
        for m in H.morphisms:
            starts.setdefault(H.src[m], []).append(m)
        for m1 in rng.sample(H.morphisms, 40):
            m2 = rng.choice(starts[H.tgt[m1]])
            p1, q1, gamma1 = IC.mor_data[m1]
            p2, q2, _ = IC.mor_data[m2]
            # the composite starts at m1's iso and conjugates to m2's end
            expected = IC.mor_id(F.source.compose[(p2, p1)],
                                 G.source.compose[(q2, q1)], gamma1)
            assert (m2, m1) in H.compose
            assert H.compose[(m2, m1)] == expected
            assert H.src[expected] == H.src[m1]
            assert H.tgt[expected] == H.tgt[m2]
            other = rng.choice(H.morphisms)
            if H.src[other] != H.tgt[m1]:
                assert H.compose.get((other, m1)) is None


def test_iso_comma_skips_unmatched_sources():
    # x and y lie in different components: no iso-comma object pairs them
    two = FinGroupoid(("x", "y"), ("ix", "iy"), {"ix": "x", "iy": "y"},
                      {"ix": "x", "iy": "y"}, {"x": "ix", "y": "iy"},
                      {("ix", "ix"): "ix", ("iy", "iy"): "iy"},
                      name="two", inverse={"ix": "ix", "iy": "iy"})
    ident = Functor(two, two, {"x": "x", "y": "y"},
                    {"ix": "ix", "iy": "iy"}, name="id")
    H = _assert_iso_comma_is_reference(ident, ident).groupoid
    assert H.objects == ("x&x&ix", "y&y&iy")
    assert H.morphisms == ("ix&ix&ix", "iy&iy&iy")


def _pair_groupoid():
    """Two objects swapped by u and v = u^-1, listed with their sources
    interleaved: x, y, x, y."""
    return FinGroupoid(
        ("x", "y"), ("ix", "iy", "u", "v"),
        {"ix": "x", "iy": "y", "u": "x", "v": "y"},
        {"ix": "x", "iy": "y", "u": "y", "v": "x"},
        {"x": "ix", "y": "iy"},
        {("ix", "ix"): "ix", ("iy", "iy"): "iy", ("u", "ix"): "u",
         ("iy", "u"): "u", ("v", "iy"): "v", ("ix", "v"): "v",
         ("v", "u"): "ix", ("u", "v"): "iy"},
        name="pair", inverse={"ix": "ix", "iy": "iy", "u": "v", "v": "u"})


def test_iso_comma_keeps_morphism_order_across_sources():
    pair = _pair_groupoid()
    ident = Functor(pair, pair, {"x": "x", "y": "y"},
                    {f: f for f in pair.morphisms}, name="id")
    H = _assert_iso_comma_is_reference(ident, ident).groupoid
    # p = ix meets every q, in morphism order, not grouped by source
    assert [m.split("&")[1] for m in H.morphisms[:4]] == \
        ["ix", "iy", "u", "v"]


def _v_after_u(source, target):
    """The iso-comma of the identity-named functor from ``source`` to
    ``target`` with itself, and the key of (v, v) after (u, u)."""
    ident = Functor(source, target, {"x": "x", "y": "y"},
                    {f: f for f in target.morphisms}, name="id")
    IC = iso_comma(ident, ident)
    H = IC.groupoid
    m1 = next(m for m in H.morphisms if IC.mor_data[m][:2] == ("u", "u"))
    m2 = next(m for m in H.morphisms if IC.mor_data[m][:2] == ("v", "v")
              and H.src[m] == H.tgt[m1])
    return H, (m2, m1)


def test_iso_comma_composite_missing_from_a_leg_source_is_an_input_error():
    # the source is refused on entry, before any composite is looked up
    pair = _pair_groupoid()
    H, key = _v_after_u(pair, pair)
    assert H.compose[key] == H.identity[H.src[key[1]]]
    compose = dict(pair.compose)
    del compose[("v", "u")]
    with pytest.raises(InputError) as exc:
        _v_after_u(dataclasses.replace(pair, compose=compose), pair)
    assert str(exc.value) == ISO_COMMA_ENTRY


def pcompose(g, f):
    return tuple(-1 if v == -1 else g[v] for v in f)


def family_commutes(A, B, fam):
    phi = {**fam, **{(i, i): () for i in range(A.n + 1)}}
    return all(
        pcompose(phi[(i, k)], A.inj[(i, j, k)]) ==
        pcompose(B.inj[(i, j, k)], phi[(i, j)]) and
        pcompose(phi[(j, k)], A.surj[(i, j, k)]) ==
        pcompose(B.surj[(i, j, k)], phi[(i, k)])
        for (i, j, k) in A.inj)


@pytest.mark.parametrize("c, n", [(2, 2), (3, 1), (3, 2), (3, 3)])
def test_level_groupoid_equals_all_pairs(c, n):
    G, by_obj, _, mor_data, by_top_row, slots = _level_groupoid(c, n, "L")
    families = []
    for o1, A in by_obj.items():
        for o2, B in by_obj.items():
            if any(A.sizes[s] != B.sizes[s] for s in slots):
                continue
            pools = [permutations(range(A.sizes[s])) for s in slots]
            for perms in product(*pools):
                if family_commutes(A, B, dict(zip(slots, perms))):
                    families.append((o1, o2, perms))
    assert list(mor_data.values()) == families
    assert list(G.morphisms) == [f"m{i}" for i in range(len(families))]
    by_family = {key: m for m, key in mor_data.items()}
    top = slots.index((0, n))
    assert by_top_row == {(o1, o2, fam[top]): m
                          for m, (o1, o2, fam) in mor_data.items()}
    compose = {}
    for m2 in G.morphisms:
        o2a, o2b, fam2 = mor_data[m2]
        for m1 in G.morphisms:
            o1a, o1b, fam1 = mor_data[m1]
            if o1b == o2a:
                compose[(m2, m1)] = by_family[(o1a, o2b, tuple(
                    pcompose(f2, f1) for f2, f1 in zip(fam2, fam1)))]
    assert list(G.compose.items()) == list(compose.items())
    assert [G.src[m] for m in G.morphisms] == \
        [mor_data[m][0] for m in G.morphisms]
    assert [G.tgt[m] for m in G.morphisms] == \
        [mor_data[m][1] for m in G.morphisms]
    for m, (oa, ob, fam) in mor_data.items():
        inv = G.inverse[m]
        assert G.compose[(inv, m)] == G.identity[oa]
        assert G.compose[(m, inv)] == G.identity[ob]


def reference_groupoid_equivalence(F):
    out = []
    for a in F.source.objects:
        for b in F.source.objects:
            image = {}
            for f in scan_hom(F.source, a, b):
                g = F.on_morphisms[f]
                if g in image:
                    out.append(LawViolation(
                        "faithful", (image[g], f), f"both map to {g!r}"))
                image.setdefault(g, f)
            for g in scan_hom(F.target, F.on_objects[a], F.on_objects[b]):
                if g not in image:
                    out.append(LawViolation(
                        "full", (a, b, g), "no preimage in this hom-set"))
    classes = iso_classes(F.target)
    reached = {classes[F.on_objects[a]] for a in F.source.objects}
    for rep in sorted(set(classes.values())):
        if rep not in reached:
            out.append(LawViolation("essentially-surjective", (rep,),
                                    "component never hit"))
    return out


def test_equivalence_violations_on_failing_s_construction_segal(S3):
    failing = [e for e in sgpd_segal_check(S3).entries
               if e.verdict == "fail"]
    assert failing
    for e in failing:
        H = sgpd_segal_map(S3, *e.indices).functor
        got = groupoid_equivalence(H)
        assert got
        assert got == reference_groupoid_equivalence(H)


# -- comparison composites checked against the whole iso-comma ------------


def rebuilt(Y, levels=None, functors=None):
    """Y built again with some of its tables replaced: ``levels`` maps a
    level number to {table name: table}, and ``functors`` maps a
    (kind, n, i) key to {assignment name: table}.  Each changed level
    is built again, and every structure functor is re-pointed at the
    levels of the result.  Tables are read-only once built, so this is
    how a test changes one."""
    levels, functors = levels or {}, functors or {}
    new = {id(G): dataclasses.replace(G, **levels.get(n, {}))
           for n, G in enumerate(Y.levels)}
    stores = {kind: {(n, i): dataclasses.replace(
        F, source=new[id(F.source)], target=new[id(F.target)],
        **functors.get((kind, n, i), {}))
        for (n, i), F in Y._store(kind).items()}
        for kind in ("face", "degeneracy")}
    return dataclasses.replace(Y, levels=tuple(new.values()), **stores)


def _with_face_morphisms(Y, n, i, changes):
    F = Y.face[(n, i)]
    return rebuilt(Y, functors={("face", n, i): {
        "on_morphisms": {**F.on_morphisms, **changes}}})


def _swap_one_image(Y, n, i):
    """Y with one non-identity morphism under face (n, i) sent to
    another morphism between the same objects: endpoints and
    identities are kept, composition breaks."""
    F = Y.face[(n, i)]
    T, identities = F.target, set(F.source.identity.values())
    for f in F.source.morphisms:
        g = F.on_morphisms[f]
        others = [h for h in T.hom(T.src[g], T.tgt[g]) if h != g]
        if f not in identities and others:
            return _with_face_morphisms(Y, n, i, {f: others[0]})
    raise AssertionError("no parallel morphism to swap in")


def _retarget_one_image(Y, n, i):
    """Y with one non-identity morphism under face (n, i) sent to a
    morphism from the same object to another: its images stop
    composing."""
    F = Y.face[(n, i)]
    T, identities = F.target, set(F.source.identity.values())
    for f in F.source.morphisms:
        g = F.on_morphisms[f]
        others = [h for h in T.morphisms
                  if T.src[h] == T.src[g] and T.tgt[h] != T.tgt[g]]
        if f not in identities and others:
            return _with_face_morphisms(Y, n, i, {f: others[0]})
    raise AssertionError("no morphism to retarget to")


def _twist_one_face(Y, n, i):
    """Y with face (n, i) conjugated by a non-identity automorphism at
    one object: still a functor, with the same objects, but it no
    longer meets the other faces on morphisms, so the comparison's
    images stop meeting in the iso-comma while their components
    compose."""
    F = Y.face[(n, i)]
    T = F.target
    y, alpha = next((y, a) for y in T.objects for a in T.hom(y, y)
                    if a != T.identity[y])
    theta = {x: T.identity[x] for x in T.objects}
    theta[y] = alpha
    return _with_face_morphisms(Y, n, i, {
        f: T.compose[(T.compose[(theta[T.tgt[g]], g)],
                      T.inverse[theta[T.src[g]]])]
        for f, g in F.on_morphisms.items()})


def _stray_composite(Y, n, i):
    A = Y.levels[n]
    return rebuilt(Y, levels={n: {"compose": {
        **A.compose, ("nowhere", A.morphisms[i]): A.morphisms[i]}}})


@pytest.mark.parametrize("truncation, corrupt, n, i", [
    (2, _swap_one_image, 2, 0), (2, _swap_one_image, 2, 2),
    (2, _stray_composite, 2, 5), (3, _retarget_one_image, 3, 0),
    (3, _twist_one_face, 3, 0)])
def test_comparison_composites_match_the_materialised_iso_comma(
        monkeypatch, truncation, corrupt, n, i):
    """The comparison's last check, on every composite or, when its
    factors are sound functors, on none, gives the violations, in
    order, of looking each composite up in the whole iso-comma; faces
    or levels are corrupted so that there are some.  A comparison may
    first be checked on no composites and then walked; only the last
    check of each iso-comma is recorded.  Graph rows whose guard holds
    build no iso-comma and check no comparison; a check is recorded as
    a comparison's when its target is the last iso-comma built.  A
    level with a stray composite is not well formed, so each iso-comma
    with it as a leg's source or target is refused on entry, and only
    those."""
    Y = corrupt(s_construction(3, truncation), n, i)
    legs, commas, last, refused = [], [], {}, set()
    real_iso_comma, real_violations = groupoid.iso_comma, \
        groupoid.functor_violations

    def iso_comma_spy(F, G):
        legs.append((F, G))
        try:
            commas.append(real_iso_comma(F, G))
        except InputError:
            refused.add(len(legs))
            raise
        return commas[-1]

    def violations_spy(H, composites=None):
        got = real_violations(H, composites)
        if not commas or H.target is not commas[-1].groupoid:
            return got
        objects, morphisms, src, tgt, identity, compose, inverse, _, _ = \
            reference_iso_comma(*legs[-1])
        whole = FinGroupoid(objects, morphisms, src, tgt, identity, compose,
                            inverse=inverse)
        last[len(legs)] = (got, real_violations(Functor(
            H.source, whole, H.on_objects, H.on_morphisms)))
        return got

    monkeypatch.setattr(groupoid, "iso_comma", iso_comma_spy)
    monkeypatch.setattr(groupoid, "functor_violations", violations_spy)
    indices = [(m, j) for m in range(1, truncation + 1)
               for j in range(1, m + 1)]
    indices += [(3, i, j) for i in range(4) for j in range(i + 2, 4)
                if truncation == 3]
    for index in indices:
        try:
            (sgpd_segal_map if len(index) == 2 else sgpd_two_segal_map)(
                Y, *index)
        except InputError as exc:
            assert str(exc) == (
                ISO_COMMA_ENTRY if len(legs) in refused else
                f"comparison is not a functor: {last[len(legs)][1][0]}")
    assert bool(refused) == (corrupt is _stray_composite)
    assert refused == {k for k, pair in enumerate(legs, 1)
                       if corrupt is _stray_composite and
                       any(Y.levels[n] in (leg.source, leg.target)
                           for leg in pair)}
    seen = list(last.values())
    assert 0 < len(seen) == len(legs) - len(refused) <= len(indices)
    for got, want in seen:
        assert got == want
    laws = [v.law for got, _ in seen for v in got]
    assert "composition-preservation" in laws
    assert set(laws) <= {"composition-preservation", "endpoint-preservation"}


# -- validate_category walks composable strings only -----------------------


def reference_validate_category(A):
    out = []
    for x in A.objects:
        i = A.identity[x]
        if A.src[i] != x or A.tgt[i] != x:
            out.append(LawViolation("identity-endpoints", (x,),
                                    f"identity {i!r} not an endomorphism"))
    for g in A.morphisms:
        for f in A.morphisms:
            defined = (g, f) in A.compose
            if defined != A.composable(g, f):
                out.append(LawViolation(
                    "composability", (g, f),
                    "defined" if defined else "missing"))
                continue
            if not defined:
                continue
            h = A.compose[(g, f)]
            if h not in set(A.morphisms):
                out.append(LawViolation("composability", (g, f),
                                        f"composite {h!r} unknown"))
            elif A.src[h] != A.src[f] or A.tgt[h] != A.tgt[g]:
                out.append(LawViolation("composite-endpoints", (g, f), h))
    for f in A.morphisms:
        left = A.compose.get((f, A.identity[A.src[f]]))
        right = A.compose.get((A.identity[A.tgt[f]], f))
        if left != f:
            out.append(LawViolation("unit", (f,), f"right unit gave {left!r}"))
        if right != f:
            out.append(LawViolation("unit", (f,), f"left unit gave {right!r}"))
    for h in A.morphisms:
        for g in A.morphisms:
            if not A.composable(h, g):
                continue
            hg = A.compose.get((h, g))
            for f in A.morphisms:
                if not A.composable(g, f):
                    continue
                gf = A.compose.get((g, f))
                lhs = A.compose.get((h, gf)) if gf is not None else None
                rhs = A.compose.get((hg, f)) if hg is not None else None
                if lhs != rhs:
                    out.append(LawViolation("associativity", (h, g, f),
                                            f"{lhs!r} != {rhs!r}"))
    return out


# most pairs of its morphisms are not composable, so recorded keys on
# such pairs fall between the composable ones in (g, f) order
SPARSE_BASE = twisted_arrow(chain_poset(2))


@SMALL
@given(st.one_of(st.none(), st.integers(0, 10 ** 6)), st.lists(
    st.tuples(st.integers(0, 10 ** 4), st.integers(0, 10 ** 4),
              st.integers(0, 10 ** 4), st.booleans()), max_size=4))
def test_validate_category_equals_all_triples(seed, edits):
    """``seed`` None is the sparse base."""
    A = SPARSE_BASE if seed is None else \
        random_category(seed, max_objects=3, max_morphisms=8)
    compose = dict(A.compose)
    mors = A.morphisms
    for gi, fi, hi, drop in edits:
        key = (mors[gi % len(mors)], mors[fi % len(mors)])
        if drop:
            compose.pop(key, None)
        else:
            compose[key] = mors[hi % len(mors)] if hi % 5 else "nowhere"
    B = FinCategory(A.objects, A.morphisms, A.src, A.tgt, A.identity,
                    compose, name=A.name)
    assert validate_category(B) == reference_validate_category(B)


# -- byte pin of the S-construction outputs --------------------------------


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_s_construction_bytes_are_pinned(S3):
    bg = sgpd_beta_gamma_equality(S3, 1, 1)
    assert {
        "sgpd": _sha(io.save_sgpd(S3)),
        "segal": _sha(io.save_report(sgpd_segal_check(S3))),
        "esd_segal": _sha(io.save_report(sgpd_segal_check(esd_gpd(S3)))),
        "beta_gamma": _sha(io.canonical_json(dataclasses.asdict(bg))),
        "two_segal": _sha(io.save_report(sgpd_two_segal_check(S3))),
    } == {
        "sgpd": "717e418807bc52fea5d52f04594eb5ac"
                "884de0e247d435222922e12c0a49fd6c",
        "segal": "3bb099d2cc7a8fb8dc46f73e3bd6da4b"
                 "339b4e101019a8153fa099ceec81cd91",
        "esd_segal": "f91e86d055ef4cef4d55dc3ff09b5591"
                     "7b14005521a495c96ca5e06eb3c283eb",
        "beta_gamma": "049c2fc2e30afc6d6352b97a431ae266"
                      "1e24c47cd91af89a3d0ce47824876a80",
        "two_segal": "e584590a356b7ab2b76bee5d1ca54240"
                     "fe22c7f6db56f85c7bf1a8e94ebe2da5",
    }


@pytest.fixture(scope="module")
def S4_levels():
    """``s_construction(3, 4)``, built once, with the level data that
    ``_level_groupoid`` handed it."""
    built = []
    real = groupoid._level_groupoid

    def keep(*args):
        built.append(real(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groupoid, "_level_groupoid", keep)
        Y = s_construction(3, 4)
    return Y, built


def test_s_construction_at_truncation_four_is_pinned(S4_levels):
    Y, _ = S4_levels
    assert [(len(G.objects), len(G.morphisms), len(G.compose))
            for G in Y.levels] == [(1, 1, 1), (3, 4, 6), (9, 23, 75),
                                   (30, 232, 2700), (127, 4777, 271501)]
    assert _sha(io.save_sgpd(Y)) == \
        "0a386d4d9480710d1ee817e96d05cdc9917cbc95b4972705e9c4fc78aea2dc7b"


def test_truncation_four_families_commute_with_every_square(S4_levels):
    Y, built = S4_levels
    assert [id(b[0]) for b in built] == list(map(id, Y.levels))
    for n, (G, by_obj, _, mor_data, by_top_row, slots) in enumerate(built):
        assert list(mor_data) == list(G.morphisms)
        assert len(by_top_row) == len(mor_data)
        top = slots.index((0, n)) if n else None
        for m, (o1, o2, fam) in mor_data.items():
            assert by_top_row[(o1, o2, () if top is None else fam[top])] == m
            assert family_commutes(by_obj[o1], by_obj[o2],
                                   dict(zip(slots, fam))), m
