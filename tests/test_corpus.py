"""Generator determinism, validity, and the standard corpus contract."""

import dataclasses
import hashlib

import pytest

from edgewise import checks, io

from edgewise.cat import (bar, chain_poset, cyclic_monoid, nerve,
                          truncated_free_monoid, validate_category,
                          validate_partial_monoid)
from edgewise.checks import fuzz_theorem, segal_check, two_segal_check
from edgewise.corpus import (
    coskeletal_from_graph,
    diamond_poset,
    idempotent_monoid,
    random_category,
    random_coskeletal_sset,
    random_partial_monoid,
    standard_corpus,
)
from edgewise.errors import GenerationError, InputError
from edgewise.sset import standard_simplex, validate


TRI = [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "a", "c")]
PAR2 = [("e0", "a", "b"), ("e1", "a", "b")]


def test_triangle_graph_is_a_nerve_in_disguise():
    X = coskeletal_from_graph(("a", "b", "c"), TRI, 4, name="tri")
    assert validate(X) == []
    # one edge per increasing pair: counts match composable strings
    assert X.level_sizes() == (3, 6, 10, 15, 21)
    assert segal_check(X).overall == "pass"
    assert two_segal_check(X).overall == "pass"


def test_parallel_pair_fails_downward_closure():
    X = coskeletal_from_graph(("a", "b"), PAR2, 5, name="par2")
    assert validate(X) == []
    report = two_segal_check(X)
    assert report.overall == "fail"
    assert report.entry("two_segal", (3, 0, 2)).verdict == "fail"


def test_sparse_graph_still_validates():
    X = coskeletal_from_graph(
        ("a", "b", "c"), [("e0", "a", "b"), ("e1", "b", "c")], 4)
    assert validate(X) == []
    assert X.level_sizes() == (3, 5, 7, 9, 11)


@pytest.mark.parametrize("make, digest", [
    (lambda: coskeletal_from_graph(("a", "b"), PAR2, 5, name="par2"),
     "e548c3003a903dbfffa525359abbca08f9ca6c2e954c7854690a184599e2a6ee"),
    (lambda: coskeletal_from_graph(("a",), [("e0", "a", "a")], 4),
     "62222cce2218358876a3472085fb0097d05d0f1e239ad148f0b63ce5bae7079e"),
    (lambda: random_coskeletal_sset(3, 2, 4, 0),
     "47a0a3983531f83b31bc29eee6cc6223d58b511220771803f0f474384a0534af"),
    (lambda: random_coskeletal_sset(2, 3, 1, 5),
     "f7be8422068b3cdbf734a58873af1f046e669087156126db6a7cfeb6cff1ce0f"),
    (lambda: random_coskeletal_sset(3, 3, 2, 1),
     "5ea824e115d04ef56e705bd6c07fa9fb00f06b1da6235b6105b7de68f2b90003"),
], ids=["par2-5", "loop-4", "v3e2-4", "v2e3-1", "v3e3-2"])
def test_coskeletal_bytes_are_pinned(make, digest):
    """SHA-256 of the saved file, recorded before the level-0 and level-1
    tables were built by the general face and degeneracy loops."""
    text = io.save_sset(make())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_graph_input_errors():
    with pytest.raises(InputError):
        coskeletal_from_graph(("a",), [("e0", "a", "z")], 2)
    with pytest.raises(InputError):
        coskeletal_from_graph(("a", "b"), [("e", "a", "b"), ("e", "a", "b")],
                              2)
    with pytest.raises(InputError):
        coskeletal_from_graph(("a",), [], 0)


def test_level_cap_aborts_generation():
    with pytest.raises(GenerationError) as exc:
        coskeletal_from_graph(
            ("a",), [("e0", "a", "a"), ("e1", "a", "a"), ("e2", "a", "a")],
            5, level_cap=200)
    assert exc.value.diagnostics["cap"] == 200


def test_level_cap_must_be_a_natural_number():
    # non-int caps: see test_builders_refuse_sizes_that_are_not_ints
    with pytest.raises(InputError, match="is not an int"):
        coskeletal_from_graph(("a", "b"), PAR2, 3, level_cap=None)
    with pytest.raises(InputError, match="is not an int"):
        random_coskeletal_sset(2, 2, 3, 0, level_cap=None)
    with pytest.raises(InputError, match="level_cap must be >= 0, got -1"):
        coskeletal_from_graph(("a", "b"), PAR2, 3, level_cap=-1)
    with pytest.raises(InputError, match="level_cap must be >= 0, got -1"):
        random_coskeletal_sset(2, 2, 3, 0, level_cap=-1)
    with pytest.raises(GenerationError) as exc:
        coskeletal_from_graph(("a", "b"), PAR2, 3, level_cap=0)
    assert exc.value.diagnostics == {"level": 2, "cap": 0}


def test_random_coskeletal_deterministic_and_valid():
    for seed in range(5):
        X = random_coskeletal_sset(2, 2, 4, seed)
        assert validate(X) == []
    again = random_coskeletal_sset(2, 2, 4, 3)
    assert again == random_coskeletal_sset(2, 2, 4, 3)


def test_sparse_graph_builds_only_its_cells():
    # a build that walks all 9**7 vertex tuples of level 6 to keep
    # 10,647 cells would spend nearly all its time on tuples it drops
    X = random_coskeletal_sset(9, 9, 6, 0)
    assert tuple(len(lv) for lv in X.levels) == \
        (9, 18, 35, 78, 241, 1236, 10647)


def test_random_coskeletal_exhausts_tries():
    # every draw puts three extra loops on the lone vertex
    with pytest.raises(GenerationError):
        random_coskeletal_sset(1, 3, 5, 0, level_cap=200)


def test_random_partial_monoid_valid_and_deterministic():
    for seed in (1, 2, 7):
        M = random_partial_monoid(3, seed)
        assert validate_partial_monoid(M) == []
    assert random_partial_monoid(4, 5).product == \
        random_partial_monoid(4, 5).product
    with pytest.raises(InputError):
        random_partial_monoid(6, 0)


def test_some_random_monoids_are_genuinely_partial():
    hits = 0
    for seed in range(10):
        M = random_partial_monoid(3, seed)
        if any((a, b) not in M.product
               for a in M.elements for b in M.elements):
            hits += 1
    assert hits > 0


def test_random_category_valid_and_bounded():
    for seed in range(1, 9):
        A = random_category(seed)
        assert validate_category(A) == []
        assert len(A.objects) <= 4
        assert len(A.morphisms) <= 24
    assert random_category(2).morphisms == random_category(2).morphisms


@pytest.mark.parametrize("args, name", [
    ((1, 0), "max_objects"), ((1, -1), "max_objects"),
    ((1, 4, 0), "max_morphisms"), ((1, 1, -3), "max_morphisms")])
def test_random_category_refuses_sizes_below_one(args, name):
    with pytest.raises(InputError) as caught:
        random_category(*args)
    assert str(caught.value) == \
        f"random_category: {name} must be >= 1, got {args[-1]}"


def test_random_category_with_one_object_rejects_poset_rolls():
    kinds = set()
    for seed in range(12):
        A = random_category(seed, 1)
        assert len(A.objects) == 1 and validate_category(A) == []
        kinds.add(A.name)
    assert len(kinds) > 1
    # every drawn monoid has two elements or more, so no draw fits
    with pytest.raises(GenerationError):
        random_category(1, 1, 1)


def test_named_helpers_validate():
    assert validate_partial_monoid(idempotent_monoid()) == []
    assert validate_category(diamond_poset()) == []


def test_standard_corpus_contract():
    corpus = standard_corpus()
    kinds = {}
    for inst in corpus:
        kinds[inst.kind] = kinds.get(inst.kind, 0) + 1
    assert kinds["nerve"] >= 20
    assert kinds["bar"] >= 10
    assert kinds["coskeletal"] >= 20
    names = [inst.name for inst in corpus]
    assert len(set(names)) == len(names)
    for inst in corpus:
        assert validate(inst.sset) == [], inst.name
    tfm1_bars = [inst for inst in corpus
                 if inst.kind == "bar" and "tfm1" in inst.name]
    assert tfm1_bars and tfm1_bars[0].sset.truncation >= 7


# -- sizes and truncations must be ints -------------------------------------

NON_INT_BUILDERS = {
    "nerve": lambda v: nerve(chain_poset(1), v),
    "bar": lambda v: bar(cyclic_monoid(2), v),
    "standard_simplex-k": lambda v: standard_simplex(v, 1),
    "standard_simplex-truncation": lambda v: standard_simplex(1, v),
    "coskeletal_from_graph": lambda v: coskeletal_from_graph(
        ("a", "b"), PAR2, v),
    "coskeletal_from_graph-level_cap": lambda v: coskeletal_from_graph(
        ("a",), [], 1, level_cap=v),
    "random_coskeletal_sset-vertices": lambda v: random_coskeletal_sset(
        v, 1, 2, 0),
    "random_coskeletal_sset-edges": lambda v: random_coskeletal_sset(
        2, v, 2, 0),
    "random_coskeletal_sset-truncation": lambda v: random_coskeletal_sset(
        2, 1, v, 0),
    "random_coskeletal_sset-level_cap": lambda v: random_coskeletal_sset(
        1, 0, 1, 0, level_cap=v),
    "chain_poset": chain_poset,
    "truncated_free_monoid": truncated_free_monoid,
    "cyclic_monoid": cyclic_monoid,
    "random_partial_monoid": lambda v: random_partial_monoid(v, 0),
    "fuzz_theorem": lambda v: fuzz_theorem(v, 0),
    "random_category-objects": lambda v: random_category(1, v),
    "random_category-morphisms": lambda v: random_category(1, 4, v),
}


@pytest.mark.parametrize("value", [2.0, 2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("builder", sorted(NON_INT_BUILDERS))
def test_builders_refuse_sizes_that_are_not_ints(builder, value):
    build = NON_INT_BUILDERS[builder]
    build(2)        # the int twin builds
    with pytest.raises(InputError, match="is not an int"):
        build(value)


def test_fuzz_summary_pin():
    # the summary and the bytes of every instance the sweep checks, which
    # depend on the generators' draws only, not on how they are made
    digest = hashlib.sha256()
    verify = checks.theorem_verify

    def spy(X):
        digest.update(io.save_sset(X).encode())
        return verify(X)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "theorem_verify", spy)
        summary = fuzz_theorem(300, 0)
    assert dataclasses.asdict(summary) == {
        "count": 300, "seed": 0, "checked": 300, "generation_failures": 0,
        "kind_counts": {"nerve": 117, "bar": 101, "coskeletal": 82},
        "violations": (), "partial_bar_level2_passes": 0}
    assert digest.hexdigest() == \
        "1a1903c8eb2f0367020d8254b790bf32e00d8cb2708577c8f5c0ef2b3796f5f0"
