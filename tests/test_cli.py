"""Command line: exit codes, determinism, and header echoing."""

import json

import pytest

from edgewise import cli, io
from edgewise.cat import (bar, chain_poset, cyclic_monoid, nerve,
                          truncated_free_monoid)
from edgewise.checks import segal_check, theorem_verify
from edgewise.groupoid import discrete_sgpd
from edgewise.sset import edgewise, standard_simplex


@pytest.fixture
def bar7_file(tmp_path):
    path = tmp_path / "bar7.json"
    io.write_text(str(path), io.save_sset(bar(truncated_free_monoid(1), 7)))
    return str(path)


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.json"
    io.write_text(str(path), io.save_sset(standard_simplex(2, 3)))
    return str(path)


def test_draw_golden(capsys):
    assert cli.main(["draw", "esd-simplex", "1"]) == 0
    out = capsys.readouterr().out
    assert out == (
        'graph "esd(standard-simplex-1)" {\n'
        '  // nodes: 3\n'
        '  "00";\n'
        '  "01";\n'
        '  "11";\n'
        '  // edges: 2\n'
        '  "00" -- "01";  // "0001"\n'
        '  "11" -- "01";  // "0111"\n'
        '}\n')


def test_draw_counts_and_file_output(tmp_path, capsys):
    assert cli.main(["draw", "esd-simplex", "2"]) == 0
    out = capsys.readouterr().out
    assert "// nodes: 6" in out
    assert "// edges: 9" in out
    assert out.count("// level 2") == 1
    target = tmp_path / "figure.dot"
    assert cli.main(["draw", "esd-simplex", "2", "-o", str(target)]) == 0
    assert target.read_text() == out


def test_theorem_human_shows_own_segal_failure(bar7_file, capsys):
    assert cli.main(["check", "theorem", bar7_file]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "own_segal_overall: fail" in out
    assert "[2, 1]" in out


def test_theorem_machine_report_and_header(bar7_file, capsys):
    code = cli.main(["check", "theorem", bar7_file, "--format", "machine",
                     "--seed", "42", "--budget-iso-nodes", "9000"])
    assert code == 0
    text = capsys.readouterr().out
    header = io.report_header(text)
    assert header["command"] == "check theorem"
    assert header["seed"] == 42
    assert header["budgets"] == {"iso-nodes": 9000, "fuzz-count": None}
    assert header["context"]["own_segal_overall"] == "fail"
    assert [2, 1] in header["context"]["own_segal_failures"]
    fresh = theorem_verify(io.load_sset(open(bar7_file).read(), name="bar7"))
    assert io.load_report(text) == fresh


def test_check_exit_codes(bar7_file, tri_file, capsys):
    assert cli.main(["check", "segal", bar7_file]) == 1
    assert cli.main(["check", "2segal", bar7_file]) == 0
    assert cli.main(["check", "2segal", tri_file, "--reduced"]) == 0
    assert cli.main(["check", "segal", tri_file, "--reduced"]) == 2
    capsys.readouterr()


def test_validate_exit_codes(tmp_path, tri_file, capsys):
    assert cli.main(["validate", tri_file]) == 0
    capsys.readouterr()
    doc = json.loads(io.save_sset(standard_simplex(1, 2)))
    doc["degeneracy"]["0,0"]["0"] = "11"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "violations: 0" not in out
    assert "[ds]" in out
    garbage = tmp_path / "garbage.json"
    garbage.write_text("nope")
    assert cli.main(["validate", str(garbage)]) == 2
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_sset_tables_of_the_wrong_type_exit_two(tmp_path, capsys):
    for key, value in (("face", None), ("degeneracy", []),
                       ("levels", None)):
        doc = json.loads(io.save_sset(standard_simplex(1, 2)))
        doc[key] = value
        bad = tmp_path / f"bad-{key}.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["check", "segal", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


def _sgpd_doc():
    return json.loads(io.save_sgpd(discrete_sgpd(nerve(chain_poset(2), 3))))


def _category_doc():
    return json.loads(io.save_category(chain_poset(2)))


def _groupoid_doc():
    return _sgpd_doc()["levels"][0]


def _report_doc():
    return json.loads(io.save_report(segal_check(standard_simplex(1, 2))))


def _monoid_doc():
    return json.loads(io.save_partial_monoid(truncated_free_monoid(2)))


# at truncation 1, so that a truncation read as 1 gives a consistent file
def _sset1_doc():
    return json.loads(io.save_sset(standard_simplex(1, 1)))


def _sgpd1_doc():
    return json.loads(io.save_sgpd(discrete_sgpd(nerve(chain_poset(1), 1))))


@pytest.mark.parametrize("make, key, value", [
    (_sgpd_doc, "face", None),
    (_sgpd_doc, "degeneracy", []),
    (_category_doc, "objects", None),
    (_groupoid_doc, "objects", None),
    (_report_doc, "entries", None),
    (_report_doc, "summary", None),
    (_report_doc, "summary", "x"),
    # a tuple key is a path to a field below the top level
    pytest.param(_category_doc, ("morphisms", 0, "id"), ["a"],
                 id="_category_doc-morphism-id-list"),
    pytest.param(_groupoid_doc, ("morphisms", 0, "id"), {"a": 1},
                 id="_groupoid_doc-morphism-id-object"),
    pytest.param(_category_doc, ("morphisms", 1, "src"), ["0"],
                 id="_category_doc-morphism-src-list"),
    (_monoid_doc, "elements", None),
    (_monoid_doc, "elements", 3),
    (_monoid_doc, "unit", [1]),
    (_monoid_doc, "unit", {}),
    (_sset1_doc, "truncation", True),
    (_sgpd1_doc, "truncation", True),
])
def test_loaded_containers_of_the_wrong_type_exit_two(tmp_path, capsys, make,
                                                      key, value):
    doc = make()
    *path, last = key if isinstance(key, tuple) else (key,)
    target = doc
    for step in path:
        target = target[step]
    target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_sgpd_composite_outside_its_level_is_reported(tmp_path, capsys):
    doc = _sgpd_doc()
    compose = doc["levels"][0]["compose"]
    compose[next(iter(compose))] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[groupoid] level 0" in out
    assert "composition-preservation" in out


@pytest.mark.parametrize("part, value", [
    ("on_objects", "yy"), ("on_objects", "0"),
    ("on_morphisms", "yy"), ("on_morphisms", "i(0)"),
])
def test_sgpd_stray_functor_key_is_reported(tmp_path, capsys, part, value):
    doc = _sgpd_doc()
    doc["face"]["1,0"][part]["zz"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "violations: 1\n" in out
    assert "[functor] level 1, indices (0,), cell \"('zz',)\": face " \
        "stray-entry" in out


@pytest.mark.parametrize("argv", [["nerve", "--truncation", "3"], ["tw"]],
                         ids=["nerve", "tw"])
def test_category_without_a_composite_exits_two(tmp_path, capsys, argv):
    doc = _category_doc()
    del doc["compose"]["1<2,0<1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main([argv[0], str(bad)] + argv[1:]) == 2
    assert "composition undefined on (1<2, 0<1)" in capsys.readouterr().err


def test_theorem_on_a_table_leaving_its_level_exits_two(tmp_path, capsys):
    doc = json.loads(io.save_sset(nerve(chain_poset(2), 5)))
    doc["degeneracy"]["4,1"]["0<0|0<0|0<0|0<0"] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["check", "theorem", str(bad)]) == 2
    assert "input tables are not simplicial" in capsys.readouterr().err


def test_stray_key_is_refused_by_every_check(tmp_path, capsys):
    doc = json.loads(io.save_sset(bar(cyclic_monoid(2), 5)))
    doc["face"]["2,0"]["zz"] = "e"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 1
    assert "  [stray-entry] level 2, indices (0,), cell 'zz': face key " \
        "is not a cell\n" in capsys.readouterr().out
    out = tmp_path / "esd.json"
    for argv in (["check", "segal", str(bad)], ["check", "2segal", str(bad)],
                 ["check", "theorem", str(bad)],
                 ["esd", str(bad), "-o", str(out)]):
        assert cli.main(argv) == 2
        assert "input tables are not simplicial" in capsys.readouterr().err
    assert not out.exists()


def test_validate_machine_output(tri_file, capsys):
    assert cli.main(["validate", tri_file, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "sset"
    assert doc["violations"] == []
    assert doc["header"]["command"] == "validate"


def test_esd_command_matches_library(tmp_path, tri_file):
    target = tmp_path / "out.json"
    assert cli.main(["esd", tri_file, "-o", str(target)]) == 0
    assert io.load_sset(target.read_text()) == edgewise(standard_simplex(2, 3))


def test_transform_outputs_load_back(tmp_path, capsys):
    cat_file = tmp_path / "chain2.json"
    io.write_text(str(cat_file), io.save_category(chain_poset(2)))
    pm_file = tmp_path / "tfm1.json"
    io.write_text(str(pm_file), io.save_partial_monoid(
        truncated_free_monoid(1)))
    for argv, kind in [
            (["nerve", str(cat_file), "--truncation", "3"], "sset"),
            (["tw", str(cat_file)], "category"),
            (["bar", str(pm_file), "--truncation", "3"], "sset"),
            (["spans", str(pm_file)], "category"),
            (["sconstruction", "--max-card", "2", "--truncation", "2"],
             "sgpd"),
    ]:
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert io.detect_format(out) == kind


def test_gen_deterministic_per_seed(capsys):
    assert cli.main(["gen", "partial-monoid", "--size", "3",
                     "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["gen", "partial-monoid", "--size", "3",
                     "--seed", "1"]) == 0
    assert capsys.readouterr().out == first
    assert cli.main(["gen", "partial-monoid", "--size", "3",
                     "--seed", "2"]) == 0
    assert capsys.readouterr().out != first
    M = io.load_partial_monoid(first)
    assert M.unit in M.elements


def test_gen_coskeletal_and_bad_spec(tmp_path, capsys):
    target = tmp_path / "cosk.json"
    assert cli.main(["gen", "coskeletal", "--spec", "2,2,3", "--seed", "4",
                     "-o", str(target)]) == 0
    X = io.load_sset(target.read_text())
    assert X.truncation == 3
    assert len(X.level(0)) == 2
    assert cli.main(["gen", "coskeletal", "--spec", "2,2", "--seed", "4"]) == 2
    assert cli.main(["gen", "coskeletal", "--spec", "a,b,c",
                     "--seed", "4"]) == 2
    negative = tmp_path / "negative.json"
    assert cli.main(["gen", "coskeletal", "--spec", "2,-1,2",
                     "-o", str(negative)]) == 2
    assert "nonnegative number of extra edges" in capsys.readouterr().err
    assert not negative.exists()


def test_fuzz_budget_caps_count(capsys):
    assert cli.main(["fuzz", "--count", "9", "--seed", "5",
                     "--budget-fuzz-count", "2"]) == 0
    out = capsys.readouterr().out
    assert "count: 2" in out
    assert "budget-fuzz-count: 2" in out


def test_fuzz_machine_output(capsys):
    assert cli.main(["fuzz", "--count", "3", "--seed", "5",
                     "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["header"]["command"] == "fuzz"
    assert doc["fuzz"]["checked"] + doc["fuzz"]["generation_failures"] == 3
    assert doc["fuzz"]["violations"] == []


def test_invalid_limits_exit_two(tmp_path, capsys):
    assert cli.main(["sconstruction", "--max-card", "9",
                     "--truncation", "2"]) == 2
    assert cli.main(["gen", "partial-monoid", "--size", "0",
                     "--seed", "1"]) == 2
    assert cli.main(["fuzz", "--count", "1", "--seed", "-3"]) == 2
    assert cli.main(["fuzz", "--count", "1", "--seed",
                     str(2 ** 64)]) == 2
    assert cli.main(["fuzz", "--count", "1", "--budget-fuzz-count",
                     "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "segal", "x.json", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("kind, key, message", [
    ("face", "7,0", "face index '7,0' out of range"),
    ("face", "1,5", "face index '1,5' out of range"),
    ("degeneracy", "-1,0", "degeneracy index '-1,0' out of range"),
    ("face", "01,0", "bad face index key '01,0'"),
])
def test_sset_table_keys_out_of_range_or_not_canonical_exit_two(
        tmp_path, capsys, kind, key, message):
    doc = json.loads(io.save_sset(nerve(chain_poset(1), 2)))
    doc[kind][key] = dict(doc[kind]["1,0"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_sgpd_table_key_not_canonical_exits_two(tmp_path, capsys):
    doc = _sgpd1_doc()
    doc["face"]["01,0"] = doc["face"]["1,0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", str(bad)]) == 2
    assert "bad face index key '01,0'" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["segal", "2segal", "theorem"])
def test_check_on_a_groupoid_file_says_it_reads_set_files(
        tmp_path, capsys, what):
    path = tmp_path / "disc.json"
    io.write_text(str(path),
                  io.save_sgpd(discrete_sgpd(standard_simplex(1, 2))))
    assert cli.main(["check", what, str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: check reads simplicial-set files; this is a simplicial "
        "groupoid file\n")


def test_check_keeps_the_set_loader_error_on_other_files(tmp_path, capsys):
    path = tmp_path / "cat.json"
    io.write_text(str(path), io.save_category(chain_poset(1)))
    assert cli.main(["check", "segal", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: simplicial set file has unknown fields")
