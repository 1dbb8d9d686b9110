"""Checker verdicts, the subdivision comparison, and the retract argument."""

import pytest

from edgewise import checks, corpus
from edgewise.cat import bar, chain_poset, nerve, truncated_free_monoid
from edgewise.checks import (
    CheckReport,
    _genuinely_partial,
    beta_gamma_equality,
    fuzz_theorem,
    retract_verify,
    retract_verify_reversed,
    segal_check,
    segal_map,
    theorem_verify,
    two_segal_check,
    two_segal_map,
    witness_re_verifies,
)
from edgewise.corpus import coskeletal_from_graph
from edgewise.errors import InputError
from edgewise.sset import standard_simplex


def par2(truncation=5):
    return coskeletal_from_graph(
        ("a", "b"), [("e0", "a", "b"), ("e1", "a", "b")], truncation,
        name="par2")


def test_segal_map_nerve_bijection():
    comp = segal_map(nerve(chain_poset(2), 2), 2, 1)
    assert comp.verdict == "pass"
    assert comp.witness is None
    assert comp.domain_size == comp.codomain_size


def test_segal_map_bar_counts_and_witness():
    comp = segal_map(bar(truncated_free_monoid(1), 2), 2, 1)
    assert comp.domain_size == 3
    assert comp.codomain_size == 4
    assert comp.verdict == "fail"
    assert comp.witness == ("uncovered", ("a", "a"))
    assert witness_re_verifies(comp)


def test_segal_map_back_face_boundary():
    comp = segal_map(nerve(chain_poset(2), 3), 3, 3)
    assert comp.verdict == "pass"
    # second factor sits over the initial vertex, one cell per object
    assert all(b in nerve(chain_poset(2), 3).level(0)
               for (_, b) in comp.pullback.pairs)


def test_segal_map_range_errors():
    X = standard_simplex(2, 2)
    with pytest.raises(InputError):
        segal_map(X, 2, 0)
    with pytest.raises(InputError):
        segal_map(X, 3, 1)


def test_two_segal_trivial_families_pass_even_on_failing_instance():
    X = par2()
    for indices in ((3, 1, 2), (3, 0, 3), (5, 2, 3), (5, 0, 5)):
        assert two_segal_map(X, *indices).verdict == "pass", indices


def test_two_segal_collision_witness():
    comp = two_segal_map(par2(3), 3, 0, 2)
    assert comp.verdict == "fail"
    assert comp.witness[0] == "collision"
    assert witness_re_verifies(comp)
    x, y = comp.witness[1]
    assert comp.table[x] == comp.table[y] and x != y


def test_two_segal_check_bar_all_pass():
    report = two_segal_check(bar(truncated_free_monoid(1), 7))
    assert report.overall == "pass"
    assert len(report.entries) == 80
    assert report.summary["certified_levels"] == [3, 7]
    assert report.summary["failures"] == 0


def test_segal_check_bar_fails_exactly_in_the_middle():
    report = segal_check(bar(truncated_free_monoid(1), 7))
    failed = {e.indices for e in report.entries if e.verdict == "fail"}
    assert failed == {(m, j) for m in range(2, 8) for j in range(1, m)}
    for e in report.entries:
        if e.verdict == "fail":
            assert e.witness[0] == "uncovered"


def test_report_indices_unique_and_lookup():
    report = two_segal_check(par2(4))
    seen = set()
    for e in report.entries:
        assert (e.kind, e.indices) not in seen
        seen.add((e.kind, e.indices))
    assert report.entry("two_segal", (3, 0, 2)).verdict == "fail"
    with pytest.raises(KeyError):
        report.entry("two_segal", (9, 0, 2))


def test_point_reports_are_vacuous_or_trivial():
    point = standard_simplex(0, 0)
    assert segal_check(point).overall == "pass"
    assert segal_check(point).entries == ()
    fat_point = standard_simplex(0, 3)
    assert segal_check(fat_point).overall == "pass"
    assert two_segal_check(fat_point).overall == "pass"


def test_beta_gamma_named_cases():
    assert beta_gamma_equality(standard_simplex(3, 3), 1, 1).verdict == "pass"
    res = beta_gamma_equality(bar(truncated_free_monoid(2), 5), 2, 1)
    assert res.verdict == "pass"
    assert res.tables_equal and res.pullbacks_equal and res.legs_equal
    assert beta_gamma_equality(standard_simplex(3, 3), 2, 1).verdict == \
        "out_of_truncation"


def test_beta_gamma_holds_on_failing_instance():
    X = par2()
    for m, j in ((1, 1), (2, 1), (2, 2)):
        res = beta_gamma_equality(X, m, j)
        assert res.verdict == "pass", (m, j, res)


def test_retract_named_cases():
    assert retract_verify(nerve(chain_poset(3), 5), 3, 2).verdict == "pass"
    res = retract_verify(bar(truncated_free_monoid(1), 5), 3, 2)
    assert res.verdict == "pass"
    assert res.big_verdict == "pass" and res.small_verdict == "pass"
    assert retract_verify(nerve(chain_poset(2), 3), 3, 2).verdict == \
        "out_of_truncation"
    with pytest.raises(InputError):
        retract_verify(nerve(chain_poset(2), 5), 3, 1)
    with pytest.raises(InputError):
        retract_verify(nerve(chain_poset(2), 5), 3, 3)


def test_retract_squares_commute_regardless_of_verdicts():
    res = retract_verify(par2(), 3, 2)
    assert res.identity_ok
    assert res.square_up_ok and res.square_down_ok
    assert res.implication_ok
    assert res.verdict == "pass"


def test_retract_reversed_family():
    assert retract_verify_reversed(
        bar(truncated_free_monoid(1), 5), 3, 1).verdict == "pass"
    assert retract_verify_reversed(par2(), 3, 1).verdict == "pass"
    with pytest.raises(InputError):
        retract_verify_reversed(par2(), 3, 2)


def test_theorem_on_free_monoid_bar():
    report = theorem_verify(bar(truncated_free_monoid(1), 7))
    s = report.summary
    assert s["overall"] == "pass"
    assert s["two_segal_overall"] == "pass"
    assert s["esd_segal_overall"] == "pass"
    assert s["esd_truncation"] == 3
    assert s["certified_levels"] == [3, 4]
    assert s["matched_agree"] and s["beta_gamma_failures"] == 0
    assert report.entry("segal", (2, 1)).verdict == "pass"
    assert report.entry("two_segal", (5, 1, 4)).verdict == "pass"


def test_theorem_on_negative_control():
    report = theorem_verify(par2())
    s = report.summary
    assert s["overall"] == "pass"
    assert s["two_segal_overall"] == "fail"
    assert s["esd_segal_overall"] == "fail"
    assert s["matched_agree"]
    assert s["retract_failures"] == 0


def test_theorem_shallow_truncation():
    report = theorem_verify(nerve(chain_poset(1), 3))
    assert report.summary["certified_levels"] == []
    assert report.summary["overall"] == "pass"
    with pytest.raises(InputError):
        theorem_verify(standard_simplex(2, 2))


def test_fuzz_deterministic_and_quiet():
    a = fuzz_theorem(10, 3)
    b = fuzz_theorem(10, 3)
    assert a == b
    assert a.violations == ()
    assert a.checked + a.generation_failures == 10
    assert fuzz_theorem(0, 1).checked == 0


def test_fuzz_partial_monoids_never_pass_level_two():
    # seed 2 draws four bar constructions among twelve instances, three
    # of them of genuinely partial products
    summary = fuzz_theorem(12, 2)
    assert summary.partial_bar_level2_passes == 0
    assert summary.kind_counts == {"nerve": 4, "bar": 4, "coskeletal": 4}


def test_failing_entries_reverify_against_rebuilt_comparisons():
    X = par2(4)
    report = two_segal_check(X)
    for e in report.entries:
        comp = two_segal_map(X, *e.indices)
        assert comp.verdict == e.verdict
        assert comp.witness == e.witness
        assert witness_re_verifies(comp)


def _level2_passes_by_full_sweep(X):
    return all(e.verdict == "pass" for e in segal_check(X).entries
               if e.indices[0] == 2)


def test_fuzz_counts_level2_passes_as_the_full_sweep(monkeypatch):
    bars = []           # [M, bar(M, 5)] of each bar instance checked
    draw = corpus.random_partial_monoid

    def recording_draw(*args):
        bars.append([draw(*args)])
        return bars[-1][0]

    def recording_check(X):     # the count reads no theorem report
        if bars and len(bars[-1]) == 1:
            bars[-1].append(X)
        return CheckReport("", "set", (), {"overall": "pass"})

    monkeypatch.setattr(corpus, "random_partial_monoid", recording_draw)
    monkeypatch.setattr(checks, "theorem_verify", recording_check)
    summary = fuzz_theorem(200, 11)
    assert summary.checked == 200 and len(bars) > 50
    assert summary.partial_bar_level2_passes == sum(
        _genuinely_partial(M) and _level2_passes_by_full_sweep(X)
        for M, X in bars)
    # the two level-2 rows decide as the full sweep does on every bar
    # instance, partial product or not
    outcomes = set()
    for M, X in bars:
        two_rows = all(segal_map(X, 2, j).verdict == "pass" for j in (1, 2))
        assert two_rows == _level2_passes_by_full_sweep(X)
        outcomes.add((two_rows, _genuinely_partial(M)))
    assert outcomes == {(True, False), (False, True)}
