"""CLI golden outputs, exit codes, file round-trips and determinism."""

from __future__ import annotations

import json

import pytest

from jordanlab.cli import run


@pytest.fixture()
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_nf_golden(capture):
    code, out, err = capture("nf", "x*y")
    assert code == 0
    assert out == "y*x + y^2\n"
    assert err == ""


def test_nf_json(capture):
    code, out, _ = capture("nf", "x*y", "--json")
    assert code == 0
    assert json.loads(out) == {"normal_form": "y*x + y^2"}


def test_mul(capture):
    code, out, _ = capture("mul", "y*x", "y")
    assert code == 0
    assert out == "y^2*x + y^3\n"


def test_hilbert(capture):
    code, out, _ = capture("hilbert", "--max-degree", "3")
    assert code == 0
    assert out == "0: 1\n1: 2\n2: 3\n3: 4\n"


def test_gb_check(capture):
    code, out, _ = capture("gb-check")
    assert code == 0
    assert out == "overlaps: 0\nconfluent: pass\n"


def test_rep_build_verify_round_trip(capture, tmp_path):
    code, out, _ = capture("rep", "build", "--partition", "3,2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 5
    assert data["partition"] == [3, 2]
    path = tmp_path / "rep.json"
    path.write_text(out)
    code, out, _ = capture("rep", "verify", str(path))
    assert code == 0
    assert out == "ok\n"


def test_rep_build_canonical_and_image_dim(capture, tmp_path):
    code, out, _ = capture("rep", "build", "--partition", "5", "--canonical", "0,0")
    assert code == 0
    path = tmp_path / "eps5.json"
    path.write_text(out)
    code, out, _ = capture("image", "dim", str(path))
    assert code == 0
    assert out == "9\n"


def test_rep_build_canonical_rejects_multipart(capture):
    code, _, err = capture("rep", "build", "--partition", "2,1",
                           "--canonical", "0,0")
    assert code == 1
    assert "OutOfRangeError" in err


def test_rep_verify_violation(capture, tmp_path):
    bad = {
        "n": 2,
        "X": [["1", "0"], ["0", "2"]],
        "Y": [["0", "1"], ["0", "0"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = capture("rep", "verify", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "residual": [["0", "-1"], ["0", "0"]]}
    assert "RelationViolation" in err


def test_rep_eval(capture, tmp_path):
    code, out, _ = capture("rep", "build", "--partition", "2")
    path = tmp_path / "eps2.json"
    path.write_text(out)
    code, out, _ = capture("rep", "eval", str(path), "y", "--json")
    assert code == 0
    assert json.loads(out)["entries"] == [["0", "1"], ["0", "0"]]


def test_image_relations(capture, tmp_path):
    code, out, _ = capture("rep", "build", "--partition", "4")
    path = tmp_path / "eps4.json"
    path.write_text(out)
    code, out, _ = capture("image", "relations", str(path), "--max-degree", "3",
                           "--json")
    assert code == 0
    rels = json.loads(out)["relations"]
    assert "x^3" in rels


def test_image_quiver(capture, tmp_path):
    code, out, _ = capture("rep", "build", "--partition", "4")
    path = tmp_path / "eps4.json"
    path.write_text(out)
    code, out, _ = capture("image", "quiver", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"vertices": ["0"], "arrows": [[2]]}


def test_image_quotient_codim(capture, tmp_path):
    code, out, _ = capture("rep", "build", "--partition", "5")
    path = tmp_path / "eps5.json"
    path.write_text(out)
    code, out, _ = capture("image", "quotient-codim", str(path),
                           "--gens", "y^2", "x^2*y", "x^3", "x*y - y*x")
    assert code == 0
    assert out == "5\n"


def test_strata_census_json(capture):
    code, out, _ = capture("strata", "census", "--n", "4", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert all(row["stratum_dim"] == 16 for row in rows)
    assert rows[0] == {"partition": [4], "fiber_dim": 4, "base_dim": 12,
                       "stratum_dim": 16, "image_dim_bound": 6, "tame": "tame"}


def test_faithful(capture):
    code, out, _ = capture("faithful", "y")
    assert code == 0
    assert out == "2\n"
    code, out, _ = capture("faithful", "x*y - y*x - y^2")
    assert code == 0
    assert out == "in-ideal\n"


def test_decompose(capture, tmp_path):
    rep = {
        "n": 2,
        "X": [["1", "0"], ["0", "2"]],
        "Y": [["0", "0"], ["0", "0"]],
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(rep))
    code, out, _ = capture("decompose", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalues"] == ["1", "2"]
    assert len(data["summands"]) == 2


def test_orbit_jacobian_rank(capture):
    code, out, _ = capture("orbit", "jacobian-rank", "--n", "6")
    assert code == 0
    assert out == "4\n"


def test_canonical_extract(capture, tmp_path):
    code, out, _ = capture("rep", "build", "--partition", "4",
                           "--canonical", "3,1/2")
    path = tmp_path / "p.json"
    path.write_text(out)
    code, out, _ = capture("canonical", "extract", str(path))
    assert code == 0
    assert out == "lambda=3 mu=1/2\n"
    code, out, _ = capture("canonical", "extract", str(path), "--json")
    assert json.loads(out) == {"lambda": "3", "mu": "1/2"}


def test_usage_error_exit_code(capture):
    code, _, err = capture("rep", "build")  # missing required --partition
    assert code == 2
    code, _, _ = capture("unknown-command")
    assert code == 2


def test_domain_error_exit_code(capture, tmp_path):
    code, _, err = capture("image", "dim", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error" in err


def test_hilbert_negative_degree_is_out_of_range(capture):
    code, out, err = capture("hilbert", "--max-degree", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: OutOfRangeError: ")


MALFORMED_REP_FILES = {
    "top_level_array": "[1, 2]",
    "integer_entries": json.dumps({"n": 1, "X": [[0]], "Y": [[0]]}),
    "null_entry": json.dumps({"n": 1, "X": [[None]], "Y": [["0"]]}),
    "scalar_matrix": json.dumps({"n": 1, "X": 5, "Y": [["0"]]}),
    "missing_key": json.dumps({"n": 1, "X": [["0"]]}),
    "string_n": json.dumps({"n": "1", "X": [["0"]], "Y": [["0"]]}),
    "wrong_shape": json.dumps({"n": 2, "X": [["0"]], "Y": [["0"]]}),
    "bad_rational": json.dumps({"n": 1, "X": [["1/0"]], "Y": [["0"]]}),
    "not_json": "{",
}


@pytest.mark.parametrize("command", [("rep", "verify"), ("image", "dim")])
@pytest.mark.parametrize("name", sorted(MALFORMED_REP_FILES))
def test_malformed_rep_file_is_input_format_error(capture, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(MALFORMED_REP_FILES[name])
    code, out, err = capture(*command, str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: InputFormatError: ")


def test_parse_error_is_domain_error(capture):
    code, _, err = capture("nf", "x^0")
    assert code == 1
    assert "PolyParseError" in err


def test_deterministic_output(capture):
    first = capture("strata", "census", "--n", "5", "--json")
    second = capture("strata", "census", "--n", "5", "--json")
    assert first == second
    a = capture("rep", "build", "--partition", "4", "--seed", "7")
    b = capture("rep", "build", "--partition", "4", "--seed", "7")
    assert a == b
    c = capture("rep", "build", "--partition", "4", "--seed", "8")
    assert a != c


def test_seed_env_override(capture, monkeypatch):
    monkeypatch.setenv("JORDAN_LAB_SEED", "3")
    with_env = capture("orbit", "jacobian-rank", "--n", "5")
    monkeypatch.delenv("JORDAN_LAB_SEED")
    explicit = capture("orbit", "jacobian-rank", "--n", "5", "--seed", "3")
    assert with_env == explicit


def test_seed_flag_beats_env(capture, monkeypatch):
    monkeypatch.setenv("JORDAN_LAB_SEED", "3")
    flagged = capture("rep", "build", "--partition", "4", "--seed", "9")
    monkeypatch.delenv("JORDAN_LAB_SEED")
    plain = capture("rep", "build", "--partition", "4", "--seed", "9")
    assert flagged == plain
