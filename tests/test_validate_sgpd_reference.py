"""``validate_sgpd`` against a reference that composes whole functors.

The library walks the set tier's identity table (``sset.identities``)
over each functor's object and morphism assignments.  The reference
below is the direct form: one loop per identity, building both
composite functors and comparing them key by key.  On randomly
corrupted simplicial groupoids, saved and loaded so that keys come in
file order, both must give the same violations in the same order,
witness cells included.
"""

import json

from hypothesis import given, settings, strategies as st

from edgewise import io
from edgewise.cat import chain_poset, nerve
from edgewise.groupoid import (compose_functors, discrete_sgpd,
                               functor_violations, identity_functor,
                               s_construction, validate_groupoid,
                               validate_sgpd)
from edgewise.sset import Violation

# -- reference --------------------------------------------------------------


def _functor_diff(F, G):
    for a, v in F.on_objects.items():
        if G.on_objects.get(a) != v:
            return str(a)
    for f, v in F.on_morphisms.items():
        if G.on_morphisms.get(f) != v:
            return str(f)
    if set(G.on_objects) != set(F.on_objects) or \
            set(G.on_morphisms) != set(F.on_morphisms):
        return "(domain mismatch)"
    return None


def reference_validate_sgpd(Y):
    out = []
    N = Y.truncation
    if len(Y.levels) != N + 1:
        return [Violation("shape", N, (), "", "level count != truncation+1")]
    for n, G in enumerate(Y.levels):
        for v in validate_groupoid(G):
            out.append(Violation("groupoid", n, (), str(v.witness), v.law))
    expected = {(n, i) for n in range(1, N + 1) for i in range(n + 1)}
    if set(Y.face) != expected:
        return out + [Violation("shape", N, (), "", "face keys wrong")]
    expected = {(n, i) for n in range(N) for i in range(n + 1)}
    if set(Y.degeneracy) != expected:
        return out + [Violation("shape", N, (), "", "degeneracy keys wrong")]
    for (n, i), F in Y.face.items():
        if F.source is not Y.levels[n] or F.target is not Y.levels[n - 1]:
            out.append(Violation("shape", n, (i,), "", "face endpoints"))
        out += [Violation("functor", n, (i,), str(v.witness), "face " + v.law)
                for v in functor_violations(F)]
    for (n, i), F in Y.degeneracy.items():
        if F.source is not Y.levels[n] or F.target is not Y.levels[n + 1]:
            out.append(Violation("shape", n, (i,), "", "degeneracy endpoints"))
        out += [Violation("functor", n, (i,), str(v.witness),
                          "degeneracy " + v.law)
                for v in functor_violations(F)]
    if out:
        return out

    def check(identity, level, indices, F, G):
        where = _functor_diff(F, G)
        if where is not None:
            out.append(Violation(identity, level, indices, where, ""))

    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                check("dd", n, (i, j),
                      compose_functors(Y.face[(n - 1, i)], Y.face[(n, j)]),
                      compose_functors(Y.face[(n - 1, j - 1)],
                                       Y.face[(n, i)]))
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                check("ss", n, (i, j),
                      compose_functors(Y.degeneracy[(n + 1, i)],
                                       Y.degeneracy[(n, j)]),
                      compose_functors(Y.degeneracy[(n + 1, j + 1)],
                                       Y.degeneracy[(n, i)]))
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                left = compose_functors(Y.face[(n + 1, i)],
                                        Y.degeneracy[(n, j)])
                if i == j or i == j + 1:
                    right = identity_functor(Y.levels[n])
                elif i < j:
                    right = compose_functors(Y.degeneracy[(n - 1, j - 1)],
                                             Y.face[(n, i)])
                else:
                    right = compose_functors(Y.degeneracy[(n - 1, j)],
                                             Y.face[(n, i - 1)])
                check("ds", n, (i, j), left, right)
    return out


# -- corrupted instances ----------------------------------------------------

# saved texts: loading gives sorted keys, so 'x10' comes before 'x6'
TEXTS = tuple(io.save_sgpd(Y) for Y in (
    s_construction(2, 3), s_construction(3, 2), s_construction(3, 3),
    discrete_sgpd(nerve(chain_poset(2), 3))))

CORRUPTIONS = ("value", "swap-values", "swap-functors", "conjugate")


def _conjugate(data, doc, kind, key):
    """Conjugate a functor by an automorphism g of one target object y.

    The result is still a functor and agrees with the old one on
    objects, so the identities it breaks fail on morphisms only.
    """
    n = int(key.split(",")[0])
    level = doc["levels"][n - 1 if kind == "face" else n + 1]
    ends = {m["id"]: (m["src"], m["tgt"]) for m in level["morphisms"]}
    autos = sorted(g for g, (a, b) in ends.items()
                   if a == b and g != level["identity"][a])
    if not autos:
        return
    g = data.draw(st.sampled_from(autos))
    y, g_inv = ends[g][0], level["inverse"][g]
    table = doc[kind][key]["on_morphisms"]
    for f, h in table.items():
        a, b = ends.get(h, (None, None))
        if b == y:
            h = level["compose"][f"{g},{h}"]
        if a == y:
            h = level["compose"][f"{h},{g_inv}"]
        table[f] = h


def corrupt_sgpd(data, text, stray=False):
    """1-3 edits to the structure functors of a saved sgpd, then loaded."""
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(("face", "degeneracy")))
        store = doc[kind]
        if not store:
            continue
        key = data.draw(st.sampled_from(sorted(store)))
        op = data.draw(st.sampled_from(CORRUPTIONS))
        if op == "conjugate":
            _conjugate(data, doc, kind, key)
            continue
        if op == "swap-functors":
            level = key.split(",")[0]
            other = data.draw(st.sampled_from(
                sorted(k for k in store if k.split(",")[0] == level)))
            store[key], store[other] = store[other], store[key]
            continue
        table = store[key][data.draw(st.sampled_from(
            ("on_objects", "on_morphisms")))]
        keys = sorted(table)
        a, b = data.draw(st.sampled_from(keys)), \
            data.draw(st.sampled_from(keys))
        if op == "value":
            table[a] = data.draw(st.sampled_from(
                sorted(set(table.values())) + ["zz"]))
        else:
            table[a], table[b] = table[b], table[a]
    if stray:
        store = doc[data.draw(st.sampled_from(("face", "degeneracy")))]
        if store:
            functor = store[data.draw(st.sampled_from(sorted(store)))]
            table = functor[data.draw(st.sampled_from(
                ("on_objects", "on_morphisms")))]
            table["zz"] = data.draw(st.sampled_from(
                sorted(set(table.values())) + ["yy"]))
    return io.load_sgpd(json.dumps(doc))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_validate_sgpd_matches_the_functor_reference(data):
    Y = corrupt_sgpd(data, data.draw(st.sampled_from(TEXTS)))
    assert validate_sgpd(Y) == reference_validate_sgpd(Y)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_stray_functor_keys_are_reported(data):
    Y = corrupt_sgpd(data, data.draw(st.sampled_from(TEXTS)), stray=True)
    assert any(v.identity == "functor" and v.detail.endswith("stray-entry")
               and v.cell == "('zz',)" for v in validate_sgpd(Y))


def test_corruptions_reach_every_identity():
    """Several identities fail at once, at each kind and on both parts."""
    seen, several = set(), 0

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def collect(data):
        nonlocal several
        found = [v for v in validate_sgpd(corrupt_sgpd(
            data, data.draw(st.sampled_from(TEXTS))))
            if v.identity in ("dd", "ss", "ds")]
        seen.update(v.identity for v in found)
        # S-construction ids: objects 'x<k>', morphisms 'm<k>'
        seen.update("morphism" for v in found if v.cell.startswith("m"))
        several += len(found) >= 2

    collect()
    assert seen >= {"dd", "ss", "ds", "morphism"}
    assert several >= 5
