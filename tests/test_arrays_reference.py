"""The S-construction's arrays and relabelings against their direct forms.

``_enumerate_arrays`` draws each array's generating data and
``_assemble_array`` derives the rest of the triangle, unchecked.
``array_violations`` below checks a whole triangle: sizes, pointed
injections and surjections, identities, bicartesian squares and every
chain.  It depends only on (c, n), and ``s_construction`` accepts only
1 <= c <= 3 and 0 <= n <= 4 (``tests/test_groupoid.py`` checks the
bounds), so running it on all 190 arrays of those 15 levels proves
every array the builder can make coherent.

``s_construction`` finds the image of an array under a face or
degeneracy by its relabeled generating data (``_key``).  The reference
relabels the whole triangle (``array_pullback``) and looks it up by
all of its entries (``signature``); it relabels a morphism slot by
slot.  Both must give every functor the same tables.
"""

from itertools import product

import pytest

from edgewise.groupoid import (_Array, _enumerate_arrays, _key,
                               _level_groupoid, _pcompose, _pidentity,
                               s_construction)

PAIRS = list(product(range(1, 4), range(5)))

# -- references -------------------------------------------------------------


def array_violations(A: _Array) -> list[str]:
    out = []
    idx = range(A.n + 1)
    for i in idx:
        if A.sizes.get((i, i)) != 0:
            out.append(f"diagonal ({i},{i}) not trivial")
    for (i, j, k), f in A.inj.items():
        if len(f) != A.sizes[(i, j)]:
            out.append(f"inj{(i, j, k)} wrong arity")
        if any(v == -1 or not 0 <= v < A.sizes[(i, k)] for v in f) or \
                len(set(f)) != len(f):
            out.append(f"inj{(i, j, k)} not a pointed injection")
    for (i, j, k), f in A.surj.items():
        if len(f) != A.sizes[(i, k)]:
            out.append(f"surj{(i, j, k)} wrong arity")
        hit = {v for v in f if v != -1}
        if hit != set(range(A.sizes[(j, k)])):
            out.append(f"surj{(i, j, k)} not onto")
    if out:
        return out
    for i in idx:
        for j in idx[i:]:
            for k in idx[j:]:
                if A.inj[(i, j, j)] != _pidentity(A.sizes[(i, j)]):
                    out.append(f"inj{(i, j, j)} not the identity")
                if A.surj[(i, i, k)] != _pidentity(A.sizes[(i, k)]):
                    out.append(f"surj{(i, i, k)} not the identity")
                fib = {x for x, v in enumerate(A.surj[(i, j, k)]) if v == -1}
                im = set(A.inj[(i, j, k)])
                if fib != im:
                    out.append(f"square {(i, j, k)} fiber != image")
                off = [v for v in A.surj[(i, j, k)] if v != -1]
                if len(set(off)) != len(off):
                    out.append(f"square {(i, j, k)} not rigid off the fiber")
                for l in idx[k:]:
                    if _pcompose(A.inj[(i, k, l)], A.inj[(i, j, k)]) != \
                            A.inj[(i, j, l)]:
                        out.append(f"inj chain {(i, j, k, l)}")
                    if _pcompose(A.surj[(j, k, l)], A.surj[(i, j, l)]) != \
                            A.surj[(i, k, l)]:
                        out.append(f"surj chain {(i, j, k, l)}")
                    if _pcompose(A.surj[(i, j, l)], A.inj[(i, k, l)]) != \
                            _pcompose(A.inj[(j, k, l)], A.surj[(i, j, k)]):
                        out.append(f"mixed square {(i, j, k, l)}")
    return out


def signature(A: _Array):
    """Every entry of the triangle, in one hashable value."""
    return (A.n, tuple(sorted(A.sizes.items())),
            tuple(sorted(A.inj.items())), tuple(sorted(A.surj.items())))


def array_pullback(A: _Array, values, m) -> _Array:
    """Reindex along a monotone map [m] -> [n]; duplicates collapse."""
    sizes = {(p, r): A.sizes[(values[p], values[r])]
             for p in range(m + 1) for r in range(p, m + 1)}
    inj = {(p, r, s): A.inj[(values[p], values[r], values[s])]
           for p in range(m + 1) for r in range(p, m + 1)
           for s in range(r, m + 1)}
    surj = {(p, r, s): A.surj[(values[p], values[r], values[s])]
            for p in range(m + 1) for r in range(p, m + 1)
            for s in range(r, m + 1)}
    return _Array(m, sizes, inj, surj)


def reference_transport(source, target, values):
    """The tables of the functor from level ``source`` to level
    ``target`` that reindexes along [m] -> [n] with these values."""
    _, by_obj, _, mor_data, _, slots = source
    _, t_by_obj, _, t_mor_data, _, t_slots = target
    m = len(values) - 1
    t_obj_id = {signature(B): o for o, B in t_by_obj.items()}
    t_mor_id = {key: mid for mid, key in t_mor_data.items()}
    on_objects = {o: t_obj_id[signature(array_pullback(A, values, m))]
                  for o, A in by_obj.items()}
    on_morphisms = {}
    for mid, (o1, o2, fam) in mor_data.items():
        phi = dict(zip(slots, fam))
        # a slot whose ends meet is the empty set
        t_fam = tuple(phi.get((values[p], values[r]), ())
                      for p, r in t_slots)
        on_morphisms[mid] = t_mor_id[(on_objects[o1], on_objects[o2],
                                      t_fam)]
    return on_objects, on_morphisms


# -- comparison -------------------------------------------------------------


def test_every_accepted_level_has_only_coherent_arrays():
    counts = []
    for c, n in PAIRS:
        arrays = list(_enumerate_arrays(c, n))
        for A in arrays:
            assert array_violations(A) == [], (c, n, A)
        # distinct arrays, told apart by their generating data alone
        assert len({_key(A, range(n + 1)) for A in arrays}) == \
            len({signature(A) for A in arrays}) == len(arrays)
        counts.append(len(arrays))
    assert counts == [1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 1, 3, 9, 30, 127]
    assert sum(counts) == 190


def test_array_violations_sees_a_broken_square():
    A = next(A for A in _enumerate_arrays(3, 2)
             if (A.sizes[(0, 1)], A.sizes[(0, 2)]) == (1, 2))
    bad = _Array(A.n, A.sizes, A.inj, dict(A.surj))
    bad.surj[(0, 1, 2)] = tuple(reversed(A.surj[(0, 1, 2)]))
    assert "square (0, 1, 2) fiber != image" in array_violations(bad)


@pytest.mark.parametrize("c, N", PAIRS)
def test_faces_and_degeneracies_match_the_reference(c, N):
    Y = s_construction(c, N)
    built = [_level_groupoid(c, n, f"S{n}") for n in range(N + 1)]
    for (n, i), F in Y.face.items():
        keep = tuple(v for v in range(n + 1) if v != i)
        assert (F.on_objects, F.on_morphisms) == \
            reference_transport(built[n], built[n - 1], keep), (n, i)
    for (n, i), F in Y.degeneracy.items():
        values = tuple(v if v <= i else v - 1 for v in range(n + 2))
        assert (F.on_objects, F.on_morphisms) == \
            reference_transport(built[n], built[n + 1], values), (n, i)
    assert len(Y.face) == N * (N + 3) // 2
    assert len(Y.degeneracy) == N * (N + 1) // 2
