import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bicatkit
from bicatkit import ho
from bicatkit.cli import main
from bicatkit.library import fixture_text

from tests.tables import implicit_structure_cases
from tests.test_index_differential import line_mutants

QUERY_EQ = """
cylinder C = (Y, X, e, id_Y, r, r, id_r, id_r)
cylinder Cinv = (Y, X, id_Y, e, r, r, id_r, id_r)
homotopy HC = cyl(C)
homotopy HCinv = cyl(Cinv)
lhs = [HCinv, HC]
rhs = id e
"""

QUERY_HAT = """
cylinder D = (B, A, id_B, id_B, v, v, id_v, id_v)
hat = D
"""

W1_COMPUTAD_DOC = """
objects: X Y Z
arrows:
  f1 : X -> Y
  f2 : X -> Y
  g1 : Y -> Z
  g2 : Y -> Z
cells:
  al : f1 => f2
  be : g1 => g2
"""


@pytest.fixture()
def split_file(tmp_path):
    p = tmp_path / "split.bic"
    p.write_text(fixture_text("split.bic"))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok_and_exit_codes(capsys, split_file):
    code, out, _ = run(capsys, "validate", split_file)
    assert code == 0 and "ok" in out


def test_validate_fixture_by_name(capsys):
    code, out, _ = run(capsys, "validate", "grpd")
    assert code == 0


def test_validate_broken_document(capsys, tmp_path):
    p = tmp_path / "bad.bic"
    p.write_text("objects: X\ncells:\n  a : id_X => id_X\n")  # vcomp a.a missing
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    assert "vcomp-totality" in out


def test_validate_parse_error_is_usage(capsys, tmp_path):
    p = tmp_path / "bad.bic"
    p.write_text("arrows:\n  f : X -> Y\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 3
    assert "line" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ("objects: X Y\narrows:\n  id_X : X -> Y\n", "arrow 'id_X' must be X -> X"),
        (
            "objects: X\narrows:\n  f : X -> X\ncells:\n  id_f : id_X => f\n",
            "cell 'id_f' must be f => f",
        ),
    ],
    ids=["identity-arrow", "identity-cell"],
)
def test_explicit_identity_with_wrong_boundary_is_usage(capsys, tmp_path, doc, message):
    p = tmp_path / "bad.bic"
    p.write_text(doc)
    line = doc.count("\n")
    assert run(capsys, "validate", str(p)) == (3, "", f"error: line {line}, column 1: {message}\n")


@pytest.mark.parametrize("ends", [(), ("--source", "chain_src"), ("--target", "chain_tgt")])
def test_validate_functor_without_both_tables_is_usage(capsys, tmp_path, ends):
    pf = tmp_path / "f.pf"
    pf.write_text(fixture_text("chain_f.pf"))
    assert run(capsys, "validate", "--functor", str(pf), *ends) == (
        3, "", "error: --functor needs --source and --target\n"
    )


def test_validate_functor_with_invalid_source_reports_the_source(capsys, tmp_path):
    src = tmp_path / "bad.bic"
    src.write_text("objects: X\ncells:\n  a : id_X => id_X\n")  # vcomp a.a missing
    pf = tmp_path / "f.pf"
    pf.write_text(fixture_text("chain_f.pf"))
    argv = ("validate", "--functor", str(pf), "--source", str(src), "--target", "chain_tgt")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (1, "source bicategory bad: 1 violation(s)\n  vcomp-totality at (a, a)\n")
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["subject"] == "source" and not payload["ok"]
    assert [v["axiom"] for v in payload["violations"]] == ["vcomp-totality"]


def test_validate_pseudofunctor(capsys, tmp_path):
    src = tmp_path / "src.bic"
    tgt = tmp_path / "tgt.bic"
    pf = tmp_path / "f.pf"
    src.write_text(fixture_text("chain_src.bic"))
    tgt.write_text(fixture_text("chain_tgt.bic"))
    pf.write_text(fixture_text("chain_f.pf"))
    code, out, _ = run(
        capsys, "validate", "--functor", str(pf), "--source", str(src), "--target", str(tgt)
    )
    assert code == 0 and "ok" in out


@pytest.mark.parametrize("command", ["validate", "extend"])
@pytest.mark.parametrize("doc, message, at", implicit_structure_cases(), ids=["xi", "phi", "phi-id"])
def test_implicit_structure_errors_exit_3_at_their_line(capsys, tmp_path, command, doc, message, at):
    pf = tmp_path / "f.pf"
    pf.write_text(doc)
    line = doc.splitlines().index(f"  {at}") + 1
    argv = (command, "--functor", str(pf), "--source", "chain_src", "--target", "chain_tgt")
    assert run(capsys, *argv) == (3, "", f"error: line {line}, column 1: f: {message}\n")


def test_sigma_check_text_and_json(capsys, split_file):
    code, out, _ = run(capsys, "sigma-check", split_file)
    assert code == 0 and "three-for-two: ok" in out
    code, out, _ = run(capsys, "sigma-check", split_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["three_for_two"]["ok"]
    code, _, _ = run(capsys, "sigma-check", split_file, "--sigma", "s,r")
    assert code == 1


def test_localize_and_replay(capsys, split_file, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "localize", split_file, "--max-len", "2", "--format", "json",
        "--out", str(cert),
    )
    assert code == 0
    payload = json.loads(cert.read_text())
    assert payload["status"] == "ok"
    assert payload["schema_version"] == 2
    code, out, _ = run(capsys, "localize", split_file, "--replay", str(cert))
    assert code == 0 and "replay ok" in out


@pytest.fixture(scope="module")
def split_cert(tmp_path_factory):
    """A split document and the certificate `localize` writes for it."""
    root = tmp_path_factory.mktemp("cert")
    doc = root / "split.bic"
    doc.write_text(fixture_text("split.bic"))
    cert = root / "cert.json"
    argv = ["localize", str(doc), "--max-len", "2", "--format", "json", "--out", str(cert)]
    assert main(argv) == 0
    return str(doc), json.loads(cert.read_text())


def replay(capsys, tmp_path, split_cert, body):
    doc, _ = split_cert
    path = tmp_path / "tampered.json"
    path.write_text(body)
    return run(capsys, "localize", doc, "--replay", str(path))


def test_replay_of_text_that_is_not_json_is_usage(capsys, tmp_path, split_cert):
    code, _, err = replay(capsys, tmp_path, split_cert, '{"status": "ok",\n  oops}')
    assert code == 3
    assert "line 2 column 3" in err


def test_replay_of_json_that_is_not_an_object_fails(capsys, tmp_path, split_cert):
    code, out, _ = replay(capsys, tmp_path, split_cert, "[1, 2]")
    assert code == 1
    assert "replay FAILED" in out and "not a JSON object" in out


def test_replay_of_a_schema_1_certificate_fails(capsys, tmp_path, split_cert):
    cert = dict(split_cert[1], schema_version=1)
    code, out, _ = replay(capsys, tmp_path, split_cert, json.dumps(cert))
    assert (code, out) == (1, "replay FAILED:\n  schema_version mismatch\n")


def test_replay_names_a_missing_decomposition_field(capsys, tmp_path, split_cert):
    cert = json.loads(json.dumps(split_cert[1]))
    del cert["decompositions"][1]["arrow"]
    code, out, _ = replay(capsys, tmp_path, split_cert, json.dumps(cert))
    assert code == 1
    assert "replay FAILED" in out and "'decompositions[1].arrow' is missing" in out


def test_replay_names_a_mistyped_budget(capsys, tmp_path, split_cert):
    cert = dict(split_cert[1], budget="x")
    code, out, _ = replay(capsys, tmp_path, split_cert, json.dumps(cert))
    assert code == 1
    assert "replay FAILED" in out and "'budget' has the wrong type" in out


def test_replay_names_a_mistyped_stored_term(capsys, tmp_path, split_cert):
    cert = json.loads(json.dumps(split_cert[1]))
    terms = cert["equivalences"][0]["to_id_src"]["hocell"]["terms"]
    terms[0] = {"kind": "icell", "cell": ["not", "a", "name"]}
    code, out, _ = replay(capsys, tmp_path, split_cert, json.dumps(cert))
    assert code == 1
    assert "'hocell.terms[0].cell' has the wrong type" in out


def test_replay_checks_probes_used(capsys, tmp_path, split_cert):
    cert = dict(split_cert[1], probes_used=[])
    code, out, _ = replay(capsys, tmp_path, split_cert, json.dumps(cert))
    assert code == 1
    assert "field 'probes_used' does not match the probes replay uses" in out


def test_replay_rejects_a_forged_witness(capsys, tmp_path, split_cert):
    cert = json.loads(json.dumps(split_cert[1]))
    for entry in cert["equivalences"]:
        for side in ("to_id_src", "to_id_dst"):
            entry[side]["hocell"] = entry[side]["inverse"] = {"f": "id_X", "g": "id_X", "terms": []}
    code, out, _ = replay(capsys, tmp_path, split_cert, json.dumps(cert))
    assert code == 1
    assert "replay FAILED" in out and "s/to_id_dst: hocell is not s * r => id" in out


def tampered_section(cert, section, how):
    """cert with one section emptied, one entry repeated, or its first entry
    moved to an arrow that is not marked."""
    cert = json.loads(json.dumps(cert))
    entries = cert[section]
    if how == "emptied":
        entries.clear()
    elif how == "repeated":
        entries.append(entries[-1])
    else:
        entries[0]["arrow"] = "q"
    return cert


@pytest.mark.parametrize("section", ["decompositions", "equivalences"])
@pytest.mark.parametrize(
    "how,problems",
    [
        ("emptied", ["no entry for marked arrow e", "no entry for marked arrow s"]),
        ("repeated", ["2 entries for s"]),
        ("unmarked", ["no entry for marked arrow e", "entry for unmarked arrow q"]),
    ],
    ids=["emptied", "repeated", "unmarked"],
)
def test_replay_requires_one_entry_per_marked_arrow(
    capsys, tmp_path, split_cert, section, how, problems
):
    cert = tampered_section(split_cert[1], section, how)
    assert [d["arrow"] for d in split_cert[1][section]] == ["e", "id_X", "id_Y", "r", "s"]
    code, out, _ = replay(capsys, tmp_path, split_cert, json.dumps(cert))
    assert code == 1 and "replay FAILED" in out
    for problem in problems:
        assert f"{section}: {problem}" in out


def test_validate_without_input_is_usage(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 3
    assert "needs an input or --functor" in err


EXTEND_SPLIT = ("extend", "--functor", "f.pf", "--source", "SPLIT", "--target", "SPLIT")


@pytest.mark.parametrize(
    "argv",
    (
        ("sigma-check", "SPLIT", "--max-len", "0"),
        ("localize", "SPLIT", "--max-len", "0"),
        (*EXTEND_SPLIT, "--cap", "0"),
        (*EXTEND_SPLIT, "--cap", "-3"),
    ),
    ids=("sigma-check-max-len", "localize-max-len", "extend-cap-0", "extend-cap-negative"),
)
def test_bounds_below_one_are_usage(capsys, split_file, argv):
    code, _, err = run(capsys, *(split_file if a == "SPLIT" else a for a in argv))
    assert code == 3
    assert "must be an integer >= 1" in err


@pytest.mark.parametrize("command", (("localize", "SPLIT"), ("ho-eq", "SPLIT", "query.txt")))
def test_budget_is_not_an_option(capsys, split_file, command):
    # the CLI always decides with the library default, which certificates record
    code, out, err = run(capsys, *(split_file if a == "SPLIT" else a for a in command), "--budget", "8")
    assert code == 3 and out == ""
    assert "unrecognized arguments: --budget 8" in err


def test_localize_underclosed_sigma_fails_with_witness(capsys, split_file):
    code, out, _ = run(capsys, "localize", split_file, "--sigma", "s,r")
    assert code == 1
    assert '"h": "e"' in out


def test_localize_report_bytes_deterministic(capsys, split_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "localize", split_file, "--format", "json", "--out", str(a))
    run(capsys, "localize", split_file, "--format", "json", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_ho_eq_equal_exit_zero(capsys, split_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text(QUERY_EQ)
    code, out, _ = run(capsys, "ho-eq", split_file, str(q))
    assert code == 0 and out.startswith("Equal")


def test_ho_eq_distinct_exit_one(capsys, tmp_path):
    g = tmp_path / "grpd.bic"
    g.write_text(fixture_text("grpd.bic"))
    q = tmp_path / "q.txt"
    q.write_text("homotopy H = h0(g)\nlhs = [H]\nrhs = id id_P\n")
    code, out, _ = run(capsys, "ho-eq", str(g), str(q), "--probes", "grpd")
    assert code == 1 and out.startswith("Distinct")


def test_ho_eq_unknown_exit_two(capsys, tmp_path):
    g = tmp_path / "grpd.bic"
    g.write_text(fixture_text("grpd.bic"))
    q = tmp_path / "q.txt"
    q.write_text("homotopy H = h0(g)\nlhs = [H]\nrhs = id id_P\n")
    # only trivial probes: the two classes cannot be separated
    code, out, _ = run(capsys, "ho-eq", str(g), str(q), "--probes", "triv")
    assert code == 2
    assert out == "Unknown (the rewrites do not join the sides and no probe separates them)\n"


def test_ho_eq_boundary_mismatch_is_usage(capsys, split_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text(
        "cylinder C = (Y, X, e, id_Y, r, r, id_r, id_r)\n"
        "homotopy HC = cyl(C)\nlhs = [HC]\nrhs = id e\n"
    )
    code, _, err = run(capsys, "ho-eq", split_file, str(q))
    assert code == 3 and "boundary mismatch" in err


def test_hat_command(capsys, tmp_path):
    iso = tmp_path / "iso.bic"
    iso.write_text(fixture_text("iso.bic"))
    q = tmp_path / "q.txt"
    q.write_text(QUERY_HAT)
    code, out, _ = run(capsys, "hat", str(iso), str(q))
    assert code == 0 and "hat(D) = id_id_B" in out


def test_hat_failure_exits_one(capsys, split_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("cylinder C = (Y, X, e, id_Y, r, r, id_r, id_r)\nhat = C\n")
    code, _, err = run(capsys, "hat", split_file, str(q))
    assert code == 1 and "quasiequivalence" in err


def test_extend_command(capsys, tmp_path):
    src = tmp_path / "src.bic"
    tgt = tmp_path / "tgt.bic"
    pf = tmp_path / "f.pf"
    src.write_text(fixture_text("chain_src.bic"))
    tgt.write_text(fixture_text("chain_tgt.bic"))
    pf.write_text(fixture_text("chain_f.pf"))
    args = ("extend", "--functor", str(pf), "--source", str(src), "--target", str(tgt))
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema_version", "functor", "report", "values"}
    assert payload["report"] == {
        "ok": True, "functorial_whisker": True, "preserves_units": True, "checked_whiskers": 150,
    }
    assert payload["values"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == "extension of f: ok\n  whiskers: 150\n"


def test_extend_solves_each_class_once(capsys, tmp_path, monkeypatch):
    # the report's whisker checks and the JSON values share one value per
    # class, from the value rule that probes use too
    solved = []
    value = ho.probe_value
    monkeypatch.setattr(ho, "probe_value", lambda fun, k, hat: solved.append((k.f, k.terms))
                        or value(fun, k, hat))
    paths = []
    for name in ("chain_f.pf", "chain_src.bic", "chain_tgt.bic"):
        paths.append(tmp_path / name)
        paths[-1].write_text(fixture_text(name))
    pf, src, tgt = map(str, paths)
    code, out, _ = run(capsys, "extend", "--functor", pf, "--source", src, "--target", tgt,
                       "--format", "json")
    assert code == 0 and json.loads(out)["values"]
    assert len(solved) == len(set(solved)) == 40


def test_extend_validates_the_functor_once(capsys, tmp_path, monkeypatch):
    from bicatkit import cli

    checked = []
    for module in (cli, ho):
        validate = module.validate_pseudofunctor
        monkeypatch.setattr(module, "validate_pseudofunctor",
                            lambda fun, validate=validate: checked.append(fun) or validate(fun))
    paths = []
    for name in ("chain_f.pf", "chain_src.bic", "chain_tgt.bic"):
        paths.append(tmp_path / name)
        paths[-1].write_text(fixture_text(name))
    pf, src, tgt = map(str, paths)
    code, out, _ = run(capsys, "extend", "--functor", pf, "--source", src, "--target", tgt)
    assert (code, out) == (0, "extension of chain_f: ok\n  whiskers: 150\n")
    assert [fun.name for fun in checked] == ["chain_f"]


def test_elevator_equal_sides(capsys, tmp_path):
    c = tmp_path / "w1.cmp"
    c.write_text(W1_COMPUTAD_DOC)
    code, out, _ = run(
        capsys, "elevator", str(c),
        "--expr", "1 * be * f1 ; g2 * al * 1",
        "--expr2", "g1 * al * 1 ; 1 * be * f2",
    )
    assert code == 0 and "equal" in out
    assert "[be]" in out  # diagram rendered


def test_elevator_unequal_exit_one(capsys, tmp_path):
    c = tmp_path / "w1.cmp"
    c.write_text(W1_COMPUTAD_DOC)
    code, out, _ = run(
        capsys, "elevator", str(c),
        "--expr", "1 * be * f1 ; g2 * al * 1",
        "--expr2", "1 * be * f1",
    )
    assert code == 1 and "NOT equal" in out


def test_elevator_with_one_expression_prints_its_normal_form(capsys, tmp_path):
    c = tmp_path / "w1.cmp"
    c.write_text(W1_COMPUTAD_DOC)
    expr = "g1 * al * 1 ; 1 * be * f2"
    code, out, _ = run(capsys, "elevator", str(c), "--expr", expr)
    normal = "1 * be * f1 ; g2 * al * 1"
    assert code == 0 and out.startswith(f"normal form: {normal}\n\ng1 . f1\n[be]")
    code, out, _ = run(capsys, "elevator", str(c), "--expr", expr, "--format", "json")
    assert (code, json.loads(out)) == (0, {"normal_form": normal, "schema_version": 2})


def test_elevator_identities_on_different_objects_are_not_equal(capsys, tmp_path):
    c = tmp_path / "w1.cmp"
    c.write_text(W1_COMPUTAD_DOC)
    code, out, _ = run(capsys, "elevator", str(c), "--expr", "1 : 1 @ X", "--expr2", "1 : 1 @ Y")
    assert code == 1 and out.endswith("NOT equal\n")


@pytest.mark.parametrize(
    "expr, message",
    (
        ("1 * al", "line 1, column 1: bad layer '1 * al': want path * cell * path"),
        ("1 * be * f1 ; g2 ** al * 1", "line 1, column 15: bad layer 'g2 ** al * 1'"),
        ("1 *  * f1", "bad layer '1 *  * f1'"),
        ("g1..g2 * al * 1", "line 1, column 1: bad path 'g1..g2'"),
        ("1 : g1..f1", "line 1, column 5: bad path 'g1..f1'"),
    ),
)
def test_elevator_expression_syntax_errors_are_usage(capsys, tmp_path, expr, message):
    c = tmp_path / "w1.cmp"
    c.write_text(W1_COMPUTAD_DOC)
    code, _, err = run(capsys, "elevator", str(c), "--expr", expr)
    assert code == 3 and message in err


@pytest.mark.parametrize(
    "expr, message",
    (
        ("1 * nope * 1", "unknown generator cell 'nope'"),
        ("f1 * al * 1", "left whisker does not meet cell"),
        ("1 * be * q", "unknown arrow 'q' in path"),
    ),
)
def test_elevator_ill_typed_expression_exits_one(capsys, tmp_path, expr, message):
    c = tmp_path / "w1.cmp"
    c.write_text(W1_COMPUTAD_DOC)
    code, _, err = run(capsys, "elevator", str(c), "--expr", expr)
    assert code == 1 and message in err


@pytest.mark.parametrize(
    "query, message",
    (
        ("cylinder C = (Y, X, e, id_Y, r, r, id_r, id_r)", "cylinder 'C' is already bound"),
        ("homotopy HC = cyl(Cinv)", "homotopy 'HC' is already bound"),
        ("lhs = id e", "sequence 'lhs' is already bound"),
        ("rhs = [HC]", "sequence 'rhs' is already bound"),
        ("hat = C\nhat = Cinv", "hat target is already bound"),
        # cylinders and homotopies share one name space
        ("cylinder HC = (Y, X, e, id_Y, r, r, id_r, id_r)", "homotopy 'HC' is already bound"),
        ("homotopy C = cyl(Cinv)", "cylinder 'C' is already bound"),
    ),
    ids=("cylinder", "homotopy", "sequence-id", "sequence-list", "hat",
         "cylinder-over-homotopy", "homotopy-over-cylinder"),
)
def test_query_rebinding_is_usage(capsys, split_file, tmp_path, query, message):
    # QUERY_EQ binds every name once, on lines 2-7; the repeat is the last line
    text = QUERY_EQ + query + "\n"
    q = tmp_path / "q.txt"
    q.write_text(text)
    for command in ("ho-eq", "hat"):
        code, out, err = run(capsys, command, split_file, str(q))
        assert code == 3 and out == "", command
        assert err == f"error: line {len(text.splitlines())}: {message}\n", command


@pytest.mark.parametrize(
    "line, message",
    (
        ("cylinder C = (Y, X, e)", "cylinder literal needs 8 components"),
        (
            "cylinder C = (X, Y, e, id_Y, r, r, id_r, id_r)",
            "cylinder 'C' declares (X, Y) but the tables give (Y, X)",
        ),
        ("hat = Nope", "unknown hat target 'Nope'"),
        ("lhs = []", "empty sequence needs 'id f' form"),
        ("what is this", "cannot parse 'what is this'"),
    ),
    ids=("cylinder-arity", "cylinder-ends", "hat-target", "empty-sequence", "unparsable"),
)
def test_query_errors_name_their_line(capsys, split_file, tmp_path, line, message):
    q = tmp_path / "q.txt"
    q.write_text(f"cylinder C0 = (Y, X, e, id_Y, r, r, id_r, id_r)\n\n{line}\n")
    for command in ("ho-eq", "hat"):
        code, out, err = run(capsys, command, split_file, str(q))
        assert (code, out, err) == (3, "", f"error: line 3: {message}\n"), command


def test_ho_eq_without_lhs_and_rhs_is_usage(capsys, split_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("cylinder C = (Y, X, e, id_Y, r, r, id_r, id_r)\nhat = C\n")
    code, out, err = run(capsys, "ho-eq", split_file, str(q))
    assert (code, out, err) == (3, "", "error: query must define sequences 'lhs' and 'rhs'\n")


def test_hat_without_hat_line_is_usage(capsys, split_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text(QUERY_EQ)
    code, out, err = run(capsys, "hat", split_file, str(q))
    assert (code, out, err) == (3, "", "error: query must contain a 'hat = NAME' line\n")


def test_unknown_probe_target_is_usage(capsys, split_file, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text(QUERY_EQ)
    for command in (("localize", split_file), ("ho-eq", split_file, str(q))):
        code, out, err = run(capsys, *command, "--probes", "triv,nope")
        assert (code, out, err) == (3, "", "error: unknown probe target 'nope'\n"), command


@pytest.mark.parametrize("spec", ("", ",", " , "))
def test_sigma_naming_no_arrow_is_usage(capsys, split_file, spec):
    # without the check "" marked the file's class and "," identities only
    code, _, err = run(capsys, "sigma-check", split_file, "--sigma", spec)
    assert code == 3 and "--sigma names no arrow" in err


@pytest.mark.parametrize("spec", ("", ",", " , "))
def test_probes_naming_no_target_is_usage(capsys, tmp_path, spec):
    # without the check the query below came back Unknown with no probes,
    # where --probes grpd answers Distinct
    g = tmp_path / "grpd.bic"
    g.write_text(fixture_text("grpd.bic"))
    q = tmp_path / "q.txt"
    q.write_text("homotopy H = h0(g)\nlhs = [H]\nrhs = id id_P\n")
    code, _, err = run(capsys, "ho-eq", str(g), str(q), "--probes", spec)
    assert code == 3 and "--probes names no probe target" in err
    code, _, err = run(capsys, "localize", "split", "--probes", spec)
    assert code == 3 and "--probes names no probe target" in err


@pytest.mark.parametrize("command", ("sigma-check", "localize"))
def test_unknown_sigma_arrow_is_usage(capsys, command):
    code, _, err = run(capsys, command, "split", "--sigma", "s,nope")
    assert code == 3 and "error: sigma lists unknown arrow 'nope'" in err


def test_repeated_probe_names_count_once(capsys):
    code, once, _ = run(capsys, "localize", "split", "--probes", "triv", "--format", "json")
    assert code == 0
    code, twice, _ = run(
        capsys, "localize", "split", "--probes", "triv, triv,", "--format", "json"
    )
    assert code == 0 and twice == once
    assert json.loads(once)["probes_used"] == ["split->triv#0"]


def test_one_table_named_twice_counts_once(capsys, tmp_path):
    copy = tmp_path / "triv.bic"
    copy.write_text(fixture_text("triv.bic"))
    code, once, _ = run(capsys, "localize", "split", "--probes", "triv", "--format", "json")
    assert code == 0
    for spec in (f"triv,{copy}", f"{copy},triv"):
        code, twice, _ = run(capsys, "localize", "split", "--probes", spec, "--format", "json")
        assert code == 0 and twice == once


@pytest.mark.parametrize("command", ("localize", "ho-eq"))
def test_two_tables_under_one_name_are_usage(capsys, tmp_path, command):
    other = tmp_path / "triv.bic"
    other.write_text(fixture_text("iso.bic"))
    q = tmp_path / "q.txt"
    q.write_text(QUERY_EQ)
    args = ["localize", "split"] if command == "localize" else ["ho-eq", "split", str(q)]
    for spec in (f"triv,{other}", f"{other},triv"):
        code, _, err = run(capsys, *args, "--probes", spec)
        assert code == 3 and "two probe targets named 'triv'" in err


def test_unknown_command_is_usage(capsys):
    assert main(["no-such-command"]) == 3


def test_probe_dir_env_var(capsys, split_file, tmp_path, monkeypatch):
    probe_dir = tmp_path / "probes"
    probe_dir.mkdir()
    (probe_dir / "mytarget.bic").write_text(fixture_text("iso.bic"))
    monkeypatch.setenv("BICATKIT_PROBE_DIR", str(probe_dir))
    code, out, _ = run(
        capsys, "localize", split_file, "--probes", "mytarget", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert any("mytarget" in p for p in payload["probes_used"])


def _with_extra_cell(fixture, arrow):
    """The fixture plus a cell on arrow whose vertical square is missing, so
    the table fails validation while every name a query uses stays."""
    return fixture_text(fixture) + f"cells:\n  zz : {arrow} => {arrow}\n"


def _writer(tmp_path):
    def put(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    return put


@pytest.mark.parametrize(
    "command",
    ["ho-eq", "hat", "localize-probes", "extend-source", "extend-target"],
)
def test_every_command_validates_the_tables_it_reads(capsys, tmp_path, command):
    put = _writer(tmp_path)
    bad_split = put("bad_split.bic", _with_extra_cell("split.bic", "e"))
    q = put("q.txt", QUERY_EQ + "hat = C\n")
    src = put("src.bic", fixture_text("chain_src.bic"))
    tgt = put("tgt.bic", fixture_text("chain_tgt.bic"))
    bad_src = put("bad_src.bic", _with_extra_cell("chain_src.bic", "a"))
    bad_tgt = put("bad_tgt.bic", _with_extra_cell("chain_tgt.bic", "a"))
    pf = put("f.pf", fixture_text("chain_f.pf"))
    pf_zz = put("g.pf", fixture_text("chain_f.pf") + "map_cell:\n  zz -> id_a\n")
    bad_iso = put("bad_iso.bic", _with_extra_cell("iso.bic", "u"))
    argv = {
        "ho-eq": ["ho-eq", bad_split, q],
        "hat": ["hat", bad_split, q],
        "localize-probes": ["localize", "split", "--probes", bad_iso],
        "extend-source": ["extend", "--functor", pf_zz, "--source", bad_src, "--target", tgt],
        "extend-target": ["extend", "--functor", pf, "--source", src, "--target", bad_tgt],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "input fails validation; run validate first\n")


def test_line_mutants_exit_with_a_code_through_every_command(capsys, tmp_path):
    """Documents one line off split.bic, chain_f.pf and a small computad, fed
    to every command: each run returns an exit code in 0-3 and raises
    nothing, so a malformed or invalid table never ends in a traceback."""
    put = _writer(tmp_path)
    q = put("q.txt", QUERY_EQ + "hat = C\n")
    split = put("split.bic", fixture_text("split.bic"))
    src = put("src.bic", fixture_text("chain_src.bic"))
    tgt = put("tgt.bic", fixture_text("chain_tgt.bic"))
    ident = put("id.pf", "map_obj:\n  X -> X\n  Y -> Y\nmap_arr:\n  s -> s\n  r -> r\n  e -> e\n")
    bic, pf, cmp = (put(f"m.{ext}", "") for ext in ("bic", "pf", "cmp"))
    cases = [
        (bic, fixture_text("split.bic"), [
            ["validate", bic],
            ["sigma-check", bic],
            ["localize", bic, "--max-len", "2"],
            ["ho-eq", bic, q],
            ["hat", bic, q],
            ["localize", "split", "--probes", bic, "--max-len", "1"],
            ["extend", "--functor", ident, "--source", bic, "--target", split],
        ]),
        (pf, fixture_text("chain_f.pf"), [
            ["validate", "--functor", pf, "--source", src, "--target", tgt],
            ["extend", "--functor", pf, "--source", src, "--target", tgt],
        ]),
        (cmp, W1_COMPUTAD_DOC, [
            ["elevator", cmp, "--expr", "1 * be * f1 ; g2 * al * 1",
             "--expr2", "g1 * al * 1 ; 1 * be * f2"],
        ]),
    ]
    codes = []
    for path, text, commands in cases:
        for mutant in line_mutants(text, random.Random(f"cli:{path[-3:]}"), 60):
            with open(path, "w") as fh:
                fh.write(mutant)
            for argv in commands:
                codes.append(main(argv))
                capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    assert {0, 1, 3} <= set(codes)


def test_out_path_that_cannot_be_written_is_usage(capsys, split_file, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "validate", split_file, "--format", "json", "--out", str(target))
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    (
        ("validate", "{bad}"),
        ("validate", "--functor", "{bad}", "--source", "chain_src", "--target", "chain_tgt"),
        ("elevator", "{bad}", "--expr", "1"),
        ("ho-eq", "{split}", "{bad}"),
        ("hat", "{split}", "{bad}"),
        ("localize", "{split}", "--replay", "{bad}"),
    ),
    ids=("bic", "pf", "cmp", "ho-eq-query", "hat-query", "replay"),
)
def test_input_not_utf8_is_usage(capsys, split_file, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe objects: X\n")
    code, out, err = run(capsys, *(a.format(bad=bad, split=split_file) for a in argv))
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot read {bad}: ") and "utf-8" in err


# The bicatkit modules each README command loads.  Every command parses and
# validates tables; the layers past that load only where a command runs them.
_PARSE = {"bicatkit", "bicatkit.cli", "bicatkit.core", "bicatkit.presentation", "bicatkit.library"}
_FIXTURES = {"bicatkit.fixtures"}  # a bundled table named, or the default probe targets
_HO = {"bicatkit.sigma", "bicatkit.homotopy", "bicatkit.ho"}
README_COMMANDS = (
    ("validate", ["validate", "split"], 0, _FIXTURES),
    ("validate-out", ["validate", "my.bic", "--format", "json", "--out", "report.json"], 0, set()),
    ("validate-functor",
     ["validate", "--functor", "f.pf", "--source", "src.bic", "--target", "tgt.bic"], 0, set()),
    ("sigma-check", ["sigma-check", "split", "--sigma", "s,r"], 1, _FIXTURES | {"bicatkit.sigma"}),
    ("localize", ["localize", "split", "--max-len", "2", "--format", "json", "--out", "cert.json"],
     0, _FIXTURES | _HO | {"bicatkit.localize"}),
    ("localize-replay", ["localize", "split", "--replay", "cert.json"],
     0, _FIXTURES | _HO | {"bicatkit.localize"}),
    ("ho-eq", ["ho-eq", "split", "query.txt"],
     0, _FIXTURES | _HO | {"bicatkit.queries"}),
    ("hat", ["hat", "iso", "hat.txt"], 0, _FIXTURES | _HO | {"bicatkit.queries"}),
    ("extend", ["extend", "--functor", "f.pf", "--source", "src.bic", "--target", "tgt.bic"],
     0, _HO),
    ("elevator", ["elevator", "w1.cmp", "--expr", "1 * be * f1 ; g2 * al * 1",
                  "--expr2", "g1 * al * 1 ; 1 * be * f2"], 0, {"bicatkit.elevator"}),
)

# runs one command as the console script does, then lists the bicatkit
# modules it imported, and dataclasses and inspect if it imported them
_LOADED = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from bicatkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "heavy = {'dataclasses', 'inspect'} - before\n"
    "sys.stderr.write(' '.join(sorted(m for m in sys.modules if m.startswith('bicatkit') or m in heavy)))\n"
    "sys.exit(code)\n"
)


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme")
    for name, text in (
        ("my.bic", fixture_text("split.bic")),
        ("src.bic", fixture_text("chain_src.bic")),
        ("tgt.bic", fixture_text("chain_tgt.bic")),
        ("f.pf", fixture_text("chain_f.pf")),
        ("query.txt", QUERY_EQ),
        ("hat.txt", QUERY_HAT),
        ("w1.cmp", W1_COMPUTAD_DOC),
    ):
        (root / name).write_text(text)
    assert main(["localize", "split", "--max-len", "2", "--format", "json",
                 "--out", str(root / "cert.json")]) == 0
    return root


@pytest.mark.parametrize(
    "argv, code, layers", [c[1:] for c in README_COMMANDS], ids=[c[0] for c in README_COMMANDS]
)
def test_each_command_loads_only_its_layers(readme_dir, argv, code, layers):
    # a fresh interpreter: this one has imported every module already
    src = str(Path(bicatkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "BICATKIT_PROBE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], cwd=readme_dir, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert loaded & {"dataclasses", "inspect"} == set()
    assert loaded == _PARSE | layers
