import pytest
from hypothesis import given, strategies as st

from edgewise.delta import (
    SimplexMap,
    all_monotone_maps,
    codegeneracy,
    coface,
    compose,
    edgewise_join_oracle,
    edgewise_on_map,
    epi_mono_factorize,
    identity,
    induced_subset_map,
    recompose,
    retract_retraction,
    retract_section,
    segal_inclusions,
    subset_inclusion,
    two_segal_inclusions,
)
from edgewise.errors import InputError


def monotone_maps(max_dim=4):
    return st.tuples(
        st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda nm: st.lists(
            st.integers(0, nm[1]), min_size=nm[0] + 1, max_size=nm[0] + 1)
        .map(lambda vs: SimplexMap(tuple(sorted(vs)), nm[1] + 1)))


def test_simplex_map_rejects_bad_data():
    with pytest.raises(InputError):
        SimplexMap((1, 0), 2)
    with pytest.raises(InputError):
        SimplexMap((0, 2), 2)
    with pytest.raises(InputError):
        SimplexMap((), 1)


def test_generator_values():
    assert coface(0, 1).values == (1,)
    assert coface(2, 2).values == (0, 1)
    assert codegeneracy(1, 1).values == (0, 1, 1)
    assert codegeneracy(0, 0).values == (0, 0)


def test_compose_of_cofaces():
    # injection [1] -> [3] with image {1, 3}
    got = compose(coface(2, 3), coface(0, 2))
    assert got.values == (1, 3)
    assert got.cod_size == 4


def test_cosimplicial_generator_relations():
    # the generator relations, checked exhaustively in low dimensions
    for n in range(1, 5):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                assert compose(coface(j, n + 1), coface(i, n)) == \
                    compose(coface(i, n + 1), coface(j - 1, n))
    for n in range(0, 4):
        for i in range(n + 1):
            for j in range(i, n + 1):
                assert compose(codegeneracy(j, n), codegeneracy(i, n + 1)) == \
                    compose(codegeneracy(i, n), codegeneracy(j + 1, n + 1))
    for n in range(2, 5):
        for j in range(n):
            for i in range(n + 1):
                lhs = compose(codegeneracy(j, n - 1), coface(i, n))
                if i < j:
                    assert lhs == compose(coface(i, n - 1),
                                          codegeneracy(j - 1, n - 2))
                elif i in (j, j + 1):
                    assert lhs.is_identity()
                else:
                    assert lhs == compose(coface(i - 1, n - 1),
                                          codegeneracy(j, n - 2))
    # n == 1 only admits the identity cases
    for i in range(2):
        assert compose(codegeneracy(0, 0), coface(i, 1)).is_identity()


def test_epi_mono_examples():
    alpha = SimplexMap((0, 0, 1), 2)
    assert epi_mono_factorize(alpha) == ((), (0,))
    beta = SimplexMap((1, 2), 4)
    assert epi_mono_factorize(beta) == ((0, 3), ())


def test_epi_mono_recompose_exhaustive():
    for n in range(0, 4):
        for m in range(0, 4):
            for alpha in all_monotone_maps(n, m):
                cof, cod = epi_mono_factorize(alpha)
                assert all(a < b for a, b in zip(cof, cof[1:]))
                assert all(a < b for a, b in zip(cod, cod[1:]))
                assert recompose(n, cof, cod) == alpha


@given(monotone_maps())
def test_epi_mono_recompose_property(alpha):
    cof, cod = epi_mono_factorize(alpha)
    assert recompose(alpha.dom_dim, cof, cod) == alpha


def test_edgewise_frozen_values():
    assert edgewise_on_map(coface(0, 1)).values == (0, 3)
    assert edgewise_on_map(coface(1, 1)).values == (1, 2)
    assert edgewise_on_map(codegeneracy(0, 0)).values == (0, 0, 1, 1)
    for n in range(4):
        assert edgewise_on_map(identity(n)) == identity(2 * n + 1)


def test_edgewise_against_join_oracle_exhaustive():
    # the closed formula must agree with the literal ordered-join
    # construction on every monotone map in range
    for n in range(0, 4):
        for m in range(0, 4):
            for alpha in all_monotone_maps(n, m):
                assert edgewise_on_map(alpha) == edgewise_join_oracle(alpha)


def test_edgewise_functoriality_exhaustive():
    for n in range(0, 3):
        for m in range(0, 3):
            for p in range(0, 3):
                for f in all_monotone_maps(n, m):
                    for g in all_monotone_maps(m, p):
                        assert edgewise_on_map(compose(g, f)) == \
                            compose(edgewise_on_map(g), edgewise_on_map(f))


@given(monotone_maps(3), monotone_maps(3))
def test_edgewise_functoriality_property(f, g):
    if f.cod_size != g.dom_size:
        return
    assert edgewise_on_map(compose(g, f)) == \
        compose(edgewise_on_map(g), edgewise_on_map(f))


def test_segal_inclusions_shape():
    front, back = segal_inclusions(3, 1)
    assert front.values == (0, 1)
    assert back.values == (1, 2, 3)
    with pytest.raises(InputError):
        segal_inclusions(3, 0)


def test_edgewise_of_segal_inclusions_are_subset_inclusions():
    # front half lands on the middle subset, back half on the outer one
    for m in range(1, 6):
        for j in range(1, m + 1):
            front, back = segal_inclusions(m, j)
            inner = subset_inclusion(range(m - j, m + j + 2), 2 * m + 1)
            outer_set = tuple(range(0, m - j + 1)) + \
                tuple(range(m + j + 1, 2 * m + 2))
            outer = subset_inclusion(outer_set, 2 * m + 1)
            assert edgewise_on_map(front) == inner
            assert edgewise_on_map(back) == outer


def test_two_segal_inclusions_factor_the_edge():
    data = two_segal_inclusions(5, 1, 3)
    assert data.outer.values == (0, 1, 3, 4, 5)
    assert data.inner.values == (1, 2, 3)
    assert data.edge.values == (1, 3)
    for n in range(3, 7):
        for i in range(0, n):
            for j in range(i + 1, n + 1):
                d = two_segal_inclusions(n, i, j)
                assert compose(d.outer, d.edge_in_outer) == d.edge
                assert compose(d.inner, d.edge_in_inner) == d.edge


def test_retract_frozen_values():
    assert retract_section(3, 2).values == (1, 3, 4, 5)
    assert retract_retraction(3, 2).values == (0, 0, 0, 1, 2, 3)


def test_retraction_after_section_is_identity():
    for n in range(3, 9):
        for k in range(2, n):
            comp = compose(retract_retraction(n, k), retract_section(n, k))
            assert comp.is_identity()


def test_induced_subset_maps_solve_the_squares():
    # both decomposition factors of the section and retraction descend
    # to subset coordinates, and the descents are retracts in turn
    for n in range(3, 7):
        for k in range(2, n):
            sec, ret = retract_section(n, k), retract_retraction(n, k)
            small = two_segal_inclusions(n, 0, k)
            big = two_segal_inclusions(2 * n - 1, n - k, n + k - 1)
            for which in ("outer", "inner"):
                lo = getattr(small, which)
                hi = getattr(big, which)
                down = induced_subset_map(sec, lo, hi)
                up = induced_subset_map(ret, hi, lo)
                assert compose(hi, down) == compose(sec, lo)
                assert compose(lo, up) == compose(ret, hi)
                assert compose(up, down).is_identity()
            assert induced_subset_map(sec, small.edge, big.edge).is_identity()


def test_induced_subset_map_rejects_escaping_images():
    vert = identity(3)
    src = subset_inclusion((0, 2), 3)
    tgt = subset_inclusion((0, 1), 3)
    with pytest.raises(InputError):
        induced_subset_map(vert, src, tgt)


@given(monotone_maps(3), monotone_maps(3), monotone_maps(3))
def test_compose_is_associative(f, g, h):
    if f.cod_size != g.dom_size or g.cod_size != h.dom_size:
        return
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)
