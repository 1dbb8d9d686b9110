"""``random_partial_monoid`` against the sampler it replaced.

The reference validates each draw's monoid in full; the sampler rejects
a draw at its first law violation and builds only the accepted monoid.
Both must return the same monoid or raise the same ``GenerationError``.
"""

import random

from edgewise import corpus
from edgewise.cat import PartialMonoid, validate_partial_monoid
from edgewise.checks import fuzz_theorem
from edgewise.corpus import random_partial_monoid
from edgewise.errors import GenerationError, InputError


def reference_random_partial_monoid(size, seed):
    if not 1 <= size <= 5:
        raise InputError("size must be between 1 and 5")
    rng = random.Random(seed)
    elements = ("e",) + tuple(f"x{i}" for i in range(1, size))
    last = None
    for attempt in range(corpus._MONOID_DRAWS):
        product = {("e", m): m for m in elements}
        product.update({(m, "e"): m for m in elements})
        for a in elements[1:]:
            for b in elements[1:]:
                pick = rng.randrange(size + 2)
                if pick < size:
                    product[(a, b)] = elements[pick]
        M = PartialMonoid(elements, "e", product,
                          name=f"rpm{size}-s{seed}")
        last = validate_partial_monoid(M)
        if not last:
            return M
    raise GenerationError(
        f"no strongly associative table of size {size} within "
        f"{corpus._MONOID_DRAWS} tries",
        seed=seed, size=size, attempts=corpus._MONOID_DRAWS,
        last_violation=str(last[0]) if last else "")


def outcome(sample, size, seed):
    """The monoid's tables, or the error's text and diagnostics."""
    try:
        M = sample(size, seed)
    except GenerationError as exc:
        return "error", str(exc), exc.diagnostics
    return M.elements, M.unit, M.product, M.name


def test_sampler_matches_the_reference(monkeypatch):
    # few draws, so that size 5 runs out and size 4 sometimes does
    monkeypatch.setattr(corpus, "_MONOID_DRAWS", 150)
    seen = set()
    for size in range(1, 6):
        for seed in range(10):
            got = outcome(random_partial_monoid, size, seed)
            assert got == outcome(reference_random_partial_monoid, size,
                                  seed), (size, seed)
            seen.add((size, got[0] == "error"))
    assert {(3, False), (4, False), (4, True), (5, True)} <= seen


def test_sampler_matches_the_reference_with_no_draws(monkeypatch):
    monkeypatch.setattr(corpus, "_MONOID_DRAWS", 0)
    assert outcome(random_partial_monoid, 3, 1) == \
        outcome(reference_random_partial_monoid, 3, 1)


def test_sampler_matches_the_reference_on_the_fuzzers_draws(monkeypatch):
    # every (size, sub-seed) that fuzz_theorem(60, s) asks for, s in 0..2,
    # at the real number of draws
    asked = []
    sampler = corpus.random_partial_monoid

    def record(size, seed):
        asked.append((size, seed))
        return sampler(size, seed)

    monkeypatch.setattr(corpus, "random_partial_monoid", record)
    for s in range(3):
        fuzz_theorem(60, s)
    monkeypatch.undo()
    assert len(asked) > 40 and {size for size, _ in asked} == {2, 3, 4}
    for size, seed in asked:
        assert outcome(random_partial_monoid, size, seed) == \
            outcome(reference_random_partial_monoid, size, seed), \
            (size, seed)
