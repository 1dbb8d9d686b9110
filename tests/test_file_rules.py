"""The rules of the file formats, pinned by the texts they give.

Each file kind's top-level fields are stated once in ``io._KINDS``, a
report's and its entries' fields come from ``CheckReport`` and
``CheckEntry``, and the truncation and cell rules of a simplicial set
are ``sset._truncation`` and ``sset._level_index``, which the
constructor and both level loaders share.  The texts below are the ones
the loaders gave before those rules were shared, so a file that breaks
a rule meets the same ``InputError`` wherever the rule is checked.
A report's values are checked as well as its fields: each entry's kind,
indices, sizes, verdict and witness, and the summary's overall, so a
report no check could write ends in ``InputError`` (exit 2).
"""

import json

import pytest

from edgewise import cli, io
from edgewise.cat import bar, chain_poset, truncated_free_monoid
from edgewise.checks import segal_check, theorem_verify, two_segal_check
from edgewise.corpus import standard_corpus
from edgewise.errors import InputError
from edgewise.groupoid import discrete_sgpd, s_construction
from edgewise.sset import TruncatedSSet, standard_simplex


def _error(load, doc) -> str:
    with pytest.raises(InputError) as caught:
        load(json.dumps(doc))
    return str(caught.value)


SAMPLES = {
    "simplicial set": (lambda: io.save_sset(standard_simplex(1, 2)),
                       io.load_sset),
    "category": (lambda: io.save_category(chain_poset(1)),
                 io.load_category),
    "groupoid": (lambda: io.save_groupoid(s_construction(2, 1).levels[0]),
                 io.load_groupoid),
    "partial monoid": (
        lambda: io.save_partial_monoid(truncated_free_monoid(1)),
        io.load_partial_monoid),
    "simplicial groupoid": (
        lambda: io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))),
        io.load_sgpd),
    "report": (lambda: io.save_report(segal_check(standard_simplex(1, 2))),
               io.load_report),
}

FIELDS = {
    "simplicial set": ["degeneracy", "face", "levels", "truncation"],
    "category": ["compose", "identity", "morphisms", "objects"],
    "groupoid": ["compose", "identity", "inverse", "morphisms", "objects"],
    "partial monoid": ["elements", "product", "unit"],
    "simplicial groupoid": ["degeneracy", "face", "levels", "truncation"],
    "report": ["entries", "semantics", "subject", "summary"],
}


# -- top-level fields ---------------------------------------------------------


@pytest.mark.parametrize("label", sorted(SAMPLES))
def test_each_kind_names_its_unknown_and_missing_fields(label):
    save, load = SAMPLES[label]
    doc = json.loads(save())
    assert sorted(doc) == FIELDS[label]
    assert _error(load, dict(doc, bogus=1)) == \
        f"{label} file has unknown fields ['bogus']"
    for field in FIELDS[label]:
        short = {k: v for k, v in doc.items() if k != field}
        assert _error(load, short) == \
            f"{label} file is missing fields ['{field}']"


def test_a_groupoid_block_names_its_level():
    doc = json.loads(io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))))
    block = doc["levels"][1]
    doc["levels"][1] = dict(block, bogus=1)
    assert _error(io.load_sgpd, doc) == \
        "level 1 file has unknown fields ['bogus']"
    for field in FIELDS["groupoid"]:
        doc["levels"][1] = {k: v for k, v in block.items() if k != field}
        assert _error(io.load_sgpd, doc) == \
            f"level 1 file is missing fields ['{field}']"


def test_detection_reads_the_same_fields():
    kinds = {"simplicial set": "sset", "category": "category",
             "groupoid": "groupoid", "partial monoid": "partial_monoid",
             "simplicial groupoid": "sgpd", "report": "report"}
    for label, (save, _) in SAMPLES.items():
        doc = json.loads(save())
        assert io.detect_format(json.dumps(doc)) == kinds[label]
        with pytest.raises(InputError, match="unrecognized field set"):
            io.detect_format(json.dumps(dict(doc, bogus=1)))


# -- reports ------------------------------------------------------------------


def test_a_wrapped_payload_that_is_no_object():
    report = segal_check(standard_simplex(1, 2))
    doc = json.loads(io.save_report(report, header={"command": "x"}))
    for payload in ([], "x", None, 3):
        doc["report"] = payload
        text = json.dumps(doc)
        assert _error(io.load_report, doc) == \
            "report payload must be an object"
        # detection and the header read only the wrapper
        assert io.detect_format(text) == "report"
        assert io.report_header(text) == {"command": "x"}


def test_corpus_reports_round_trip():
    header = {"command": "check", "seed": 0}
    for inst in standard_corpus():
        X = inst.sset
        for report in (segal_check(X), two_segal_check(X),
                       two_segal_check(X, "reduced"), theorem_verify(X)):
            for head in (None, header):
                text = io.save_report(report, header=head)
                back = io.load_report(text)
                assert back == report, inst.name
                assert io.save_report(back, header=head) == text
                assert io.report_header(text) == head


# the file of a report with the right fields and none of the right values
_VALUELESS = {
    "entries": [{"kind": 5, "indices": "q", "domain_size": None,
                 "codomain_size": 1, "verdict": [], "witness": None}],
    "semantics": "set", "subject": "x", "summary": {},
}


def _failing_report_doc():
    doc = json.loads(io.save_report(segal_check(bar(
        truncated_free_monoid(1), 3))))
    assert doc["summary"]["overall"] == "fail"
    return doc


@pytest.mark.parametrize("field, value, bad", [
    ("kind", 5, "kind"),
    ("kind", "theorem", "kind"),
    ("kind", [], "kind"),
    ("indices", "q", "indices"),
    ("indices", [2], "indices"),
    ("indices", [2, 1, 1], "indices"),
    ("indices", [1, 2], "indices"),
    ("indices", [2, 0], "indices"),
    ("indices", [2, True], "indices"),
    ("indices", [2, -1], "indices"),
    ("domain_size", None, "sizes"),
    ("codomain_size", 1.0, "sizes"),
    ("domain_size", -1, "sizes"),
    ("verdict", [], "verdict"),
    ("verdict", "maybe", "verdict"),
    ("witness", None, "witness"),
    ("witness", ["collision"], "witness"),
    ("witness", ["collision", "ab"], "witness"),
    ("witness", [3, ["a", "b"]], "witness"),
    ("witness", ["collision", ["a", 3]], "witness"),
])
def test_report_entry_values_are_checked(field, value, bad):
    doc = _failing_report_doc()
    entry = next(e for e in doc["entries"] if e["verdict"] == "fail")
    entry[field] = value
    assert _error(io.load_report, doc) == \
        f"bad {bad} in report entry {entry!r}"


def test_a_passing_entry_has_no_witness_and_two_segal_indices_rise():
    doc = json.loads(io.save_report(two_segal_check(standard_simplex(1, 3))))
    entry = doc["entries"][0]
    assert entry["verdict"] == "pass"
    entry["witness"] = ["collision", ["a", "b"]]
    assert _error(io.load_report, doc).startswith("bad witness")
    entry["witness"] = None
    entry["indices"] = [3, 2, 1]
    assert _error(io.load_report, doc).startswith("bad indices")


@pytest.mark.parametrize("summary", [{}, {"overall": None},
                                     {"overall": "maybe"},
                                     {"overall": ["pass"]}])
def test_report_overall_is_checked(summary):
    doc = _failing_report_doc()
    doc["summary"] = summary
    assert _error(io.load_report, doc) == \
        f"report overall must be pass or fail, not {summary.get('overall')!r}"


@pytest.mark.parametrize("field", ["subject", "semantics"])
def test_report_names_are_strings(field):
    doc = _failing_report_doc()
    doc[field] = 5
    assert _error(io.load_report, doc) == f"{field} must be a string"


def test_a_report_with_no_right_values_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_VALUELESS))
    assert cli.main(["validate", str(bad)]) == 2
    assert "bad kind in report entry" in capsys.readouterr().err
    entry = _VALUELESS["entries"][0]
    fixed = dict(_VALUELESS, entries=[dict(entry, kind="segal",
                                          indices=[1, 1], domain_size=1,
                                          verdict="pass")])
    assert _error(io.load_report, fixed) == \
        "report overall must be pass or fail, not None"


# -- the levels of a simplicial set -------------------------------------------


def _sset_doc():
    return json.loads(io.save_sset(standard_simplex(1, 2)))


@pytest.mark.parametrize("level, text", [
    (["0", 1, "x"], "cell id 1 at level 1 is not str"),
    (["0", ["a"], "1"], "cell id ['a'] at level 1 is not str"),
    (["0", "1", "0", 2], "cell id 2 at level 1 is not str"),
    (["0", "0", "1"], "duplicate cell ids at level 1"),
])
def test_cell_rules_give_the_constructor_texts(level, text):
    doc = _sset_doc()
    doc["levels"][1] = level
    assert _error(io.load_sset, doc) == text
    with pytest.raises(InputError) as caught:
        TruncatedSSet(2, doc["levels"], {}, {})
    assert str(caught.value) == text


def test_a_bad_cell_on_a_lower_level_is_met_first():
    doc = _sset_doc()
    doc["levels"][0] = ["0", "0"]
    doc["levels"][2] = [7]
    assert _error(io.load_sset, doc) == "duplicate cell ids at level 0"


@pytest.mark.parametrize("truncation", [-1, True, 1.0, "2", None])
def test_truncation_rule_gives_one_text_everywhere(truncation):
    text = f"bad truncation {truncation!r}"
    sset_doc = dict(_sset_doc(), truncation=truncation)
    assert _error(io.load_sset, sset_doc) == text
    sgpd_doc = json.loads(io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))))
    sgpd_doc["truncation"] = truncation
    assert _error(io.load_sgpd, sgpd_doc) == text
    with pytest.raises(InputError) as caught:
        TruncatedSSet(truncation, sset_doc["levels"], {}, {})
    assert str(caught.value) == text


def test_level_counts_keep_their_texts():
    doc = dict(_sset_doc(), truncation=3)
    assert _error(io.load_sset, doc) == "expected 4 levels, got 3"
    gdoc = json.loads(io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))))
    gdoc["truncation"] = 2
    assert _error(io.load_sgpd, gdoc) == \
        "levels must list one groupoid per level"


def test_table_errors_come_before_level_errors():
    # the tables are read first, whatever is wrong with the levels
    for levels, truncation in ((None, 9), ([["0", "0"], [], []], 2)):
        doc = _sset_doc()
        doc["truncation"] = truncation
        if levels is not None:
            doc["levels"] = levels
        doc["face"]["x"] = {}
        assert _error(io.load_sset, doc) == "bad face index key 'x'"
