"""File formats: byte-stable round trips and loud rejection of bad input."""

import json
import os

import pytest

from edgewise import io
from edgewise.cat import bar, chain_poset, nerve, truncated_free_monoid, \
    twisted_arrow
from edgewise.checks import segal_check, theorem_verify, two_segal_check
from edgewise.corpus import coskeletal_from_graph, idempotent_monoid
from edgewise.errors import InputError
from edgewise.groupoid import discrete_sgpd, s_construction
from edgewise.sset import edgewise, standard_simplex


def par3():
    return coskeletal_from_graph(
        ("a", "b"), [("e0", "a", "b"), ("e1", "a", "b"),
                     ("e2", "a", "b")], 4, name="par3")


# -- round trips -------------------------------------------------------------


def test_sset_round_trip_equality():
    X = edgewise(standard_simplex(2, 5))
    text = io.save_sset(X)
    assert io.load_sset(text) == X
    assert io.save_sset(io.load_sset(text)) == text


def test_canonical_shape():
    text = io.save_sset(standard_simplex(1, 2))
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=2) + "\n"


def test_category_round_trip():
    A = twisted_arrow(chain_poset(2))
    text = io.save_category(A)
    B = io.load_category(text, name="reload")
    assert list(B.objects) == list(A.objects)
    assert list(B.morphisms) == list(A.morphisms)
    assert B.src == A.src and B.tgt == A.tgt
    assert B.identity == A.identity and B.compose == A.compose
    assert io.save_category(B) == text


def test_partial_monoid_round_trip():
    for M in (truncated_free_monoid(2), idempotent_monoid()):
        text = io.save_partial_monoid(M)
        R = io.load_partial_monoid(text)
        assert list(R.elements) == list(M.elements)
        assert R.unit == M.unit and R.product == M.product
        assert io.save_partial_monoid(R) == text


def test_groupoid_round_trip():
    G = s_construction(3, 1).levels[1]
    text = io.save_groupoid(G)
    H = io.load_groupoid(text)
    assert list(H.objects) == list(G.objects)
    assert H.compose == G.compose and H.inverse == G.inverse
    assert io.save_groupoid(H) == text


def test_sgpd_round_trip():
    for Y in (s_construction(2, 2), discrete_sgpd(nerve(chain_poset(2), 2))):
        text = io.save_sgpd(Y)
        Z = io.load_sgpd(text)
        assert Z.truncation == Y.truncation
        for n in range(Y.truncation + 1):
            assert list(Z.levels[n].objects) == list(Y.levels[n].objects)
            assert Z.levels[n].compose == Y.levels[n].compose
        for key in Y.face:
            assert Z.face[key].on_objects == Y.face[key].on_objects
            assert Z.face[key].on_morphisms == Y.face[key].on_morphisms
        assert set(Z.degeneracy) == set(Y.degeneracy)
        assert io.save_sgpd(Z) == text


def test_sgpd_functors_bound_to_loaded_levels():
    Y = io.load_sgpd(io.save_sgpd(s_construction(2, 2)))
    for (n, _), F in Y.face.items():
        assert F.source is Y.levels[n]
        assert F.target is Y.levels[n - 1]
    for (n, _), F in Y.degeneracy.items():
        assert F.source is Y.levels[n]
        assert F.target is Y.levels[n + 1]


def test_report_round_trip_with_witnesses():
    # a failing report keeps tuple-shaped witnesses through the format
    report = segal_check(bar(truncated_free_monoid(1), 3))
    assert report.overall == "fail"
    text = io.save_report(report)
    back = io.load_report(text)
    assert back == report
    assert io.save_report(back) == text
    entry = back.entry("segal", (2, 1))
    assert isinstance(entry.witness, tuple)
    assert isinstance(entry.witness[1], tuple)


def test_report_round_trip_theorem_and_two_segal():
    for report in (theorem_verify(nerve(chain_poset(2), 3)),
                   two_segal_check(par3())):
        assert io.load_report(io.save_report(report)) == report


def test_report_header_wrapping():
    report = segal_check(standard_simplex(1, 2))
    header = {"command": "check segal", "seed": 3,
              "budgets": {"iso-nodes": None, "fuzz-count": 10}}
    text = io.save_report(report, header=header)
    assert io.report_header(text) == header
    assert io.load_report(text) == report
    assert io.report_header(io.save_report(report)) is None


# -- format detection --------------------------------------------------------


def test_detect_format_each_kind():
    samples = {
        "sset": io.save_sset(standard_simplex(1, 2)),
        "category": io.save_category(chain_poset(1)),
        "groupoid": io.save_groupoid(s_construction(2, 1).levels[0]),
        "partial_monoid": io.save_partial_monoid(truncated_free_monoid(1)),
        "sgpd": io.save_sgpd(s_construction(2, 1)),
        "report": io.save_report(segal_check(standard_simplex(1, 2))),
    }
    for kind, text in samples.items():
        assert io.detect_format(text) == kind
    wrapped = io.save_report(segal_check(standard_simplex(1, 2)),
                             header={"command": "x"})
    assert io.detect_format(wrapped) == "report"


def test_detect_format_separates_sset_from_sgpd():
    # same top-level fields; the level payload decides
    sset_text = io.save_sset(standard_simplex(1, 1))
    sgpd_text = io.save_sgpd(discrete_sgpd(standard_simplex(1, 1)))
    assert io.detect_format(sset_text) == "sset"
    assert io.detect_format(sgpd_text) == "sgpd"


def test_load_any_returns_kind_and_value():
    kind, value = io.load_any(io.save_sset(standard_simplex(1, 2)),
                              name="tri")
    assert kind == "sset"
    assert value == standard_simplex(1, 2)
    kind, value = io.load_any(io.save_partial_monoid(idempotent_monoid()))
    assert kind == "partial_monoid"
    assert value.unit in value.elements


# -- rejection ---------------------------------------------------------------


def test_not_json_and_non_object_rejected():
    with pytest.raises(InputError):
        io.detect_format("not json")
    with pytest.raises(InputError):
        io.load_sset("[1, 2]")


@pytest.mark.parametrize("save, load", [
    (lambda: io.save_sset(standard_simplex(1, 2)), io.load_sset),
    (lambda: io.save_category(chain_poset(1)), io.load_category),
    (lambda: io.save_groupoid(s_construction(2, 1).levels[0]),
     io.load_groupoid),
    (lambda: io.save_partial_monoid(truncated_free_monoid(1)),
     io.load_partial_monoid),
    (lambda: io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))),
     io.load_sgpd),
    (lambda: io.save_report(segal_check(standard_simplex(1, 2))),
     io.load_report),
])
def test_unknown_and_missing_fields_rejected(save, load):
    doc = json.loads(save())
    extra = dict(doc, bogus=1)
    with pytest.raises(InputError, match="unknown"):
        load(json.dumps(extra))
    short = dict(doc)
    short.pop(sorted(doc)[0])
    with pytest.raises(InputError, match="missing"):
        load(json.dumps(short))


def test_bad_table_keys_rejected():
    doc = json.loads(io.save_sset(standard_simplex(1, 2)))
    doc["face"]["one,zero"] = doc["face"].pop("1,0")
    with pytest.raises(InputError, match="face index"):
        io.load_sset(json.dumps(doc))
    cat = json.loads(io.save_category(chain_poset(1)))
    cat["compose"] = {"nocomma": "id_0"}
    with pytest.raises(InputError, match="compose key"):
        io.load_category(json.dumps(cat))


def test_sgpd_functor_index_range_checked():
    doc = json.loads(io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))))
    doc["face"]["0,0"] = doc["face"]["1,0"]
    with pytest.raises(InputError, match="out of range"):
        io.load_sgpd(json.dumps(doc))
    doc = json.loads(io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))))
    doc["degeneracy"]["1,0"] = doc["degeneracy"]["0,0"]
    with pytest.raises(InputError, match="out of range"):
        io.load_sgpd(json.dumps(doc))


def test_report_entry_shape_enforced():
    doc = json.loads(io.save_report(segal_check(standard_simplex(1, 2))))
    del doc["entries"][0]["witness"]
    with pytest.raises(InputError, match="entry"):
        io.load_report(json.dumps(doc))


# -- atomic writes -----------------------------------------------------------


def test_write_text_round_trip_and_overwrite(tmp_path):
    target = tmp_path / "out.json"
    io.write_text(str(target), "first\n")
    assert target.read_text() == "first\n"
    io.write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.json"]
    assert leftovers == []


@pytest.mark.parametrize("kind, key", [
    ("face", "7,0"), ("face", "1,5"), ("face", "0,0"),
    ("degeneracy", "-1,0"), ("degeneracy", "2,0")])
def test_sset_table_index_range_checked(kind, key):
    doc = json.loads(io.save_sset(nerve(chain_poset(1), 2)))
    doc[kind][key] = {}
    with pytest.raises(InputError) as exc:
        io.load_sset(json.dumps(doc))
    assert str(exc.value) == f"{kind} index {key!r} out of range"


@pytest.mark.parametrize("key", ["01,0", " 1,0", "1, 0", "+1,0"])
def test_index_keys_must_be_canonical(key):
    # another spelling of "1,0" would silently replace that table
    doc = json.loads(io.save_sset(nerve(chain_poset(1), 2)))
    doc["face"][key] = doc["face"]["1,1"]
    with pytest.raises(InputError) as exc:
        io.load_sset(json.dumps(doc))
    assert str(exc.value) == f"bad face index key {key!r}"
    doc = json.loads(io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))))
    doc["face"][key] = doc["face"]["1,1"]
    with pytest.raises(InputError) as exc:
        io.load_sgpd(json.dumps(doc))
    assert str(exc.value) == f"bad face index key {key!r}"
