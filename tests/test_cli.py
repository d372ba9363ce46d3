"""CLI golden outputs, exit codes, file round-trips and determinism."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from jordanlab import QMatrix, RepPair, block_diag, conjugate
from jordanlab.cli import rep_to_json, run
from jordanlab.reps import jordan_block, x_zero
from jordanlab.sampling import rand_unimodular


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


def test_hilbert_json(capture):
    code, out, _ = capture("hilbert", "--max-degree", "30", "--json")
    assert code == 0
    assert json.loads(out) == {"dims": list(range(1, 32))}


def test_gb_check(capture):
    code, out, _ = capture("gb-check")
    assert code == 0
    assert out == "overlaps: 0\nconfluent: pass\n"


def test_gb_check_json(capture):
    code, out, _ = capture("gb-check", "--json")
    assert code == 0
    assert json.loads(out) == {"overlaps": [], "confluent": True}


# Rep files for the golden runs; a name in an argv below stands for its path.
GOLDEN_REP_FILES = {
    "SEEDED": {"n": 3, "X": [["9", "-1", "1/2"], ["0", "9", "0"], ["0", "-9/4", "-1/2"]],
               "Y": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
    "CANON": {"n": 3, "X": [["1/2", "-1/3", "0"], ["0", "1/2", "-4/3"], ["0", "0", "1/2"]],
              "Y": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]},
    "ONE": {"n": 1, "X": [["5"]], "Y": [["0"]]},
    "ZERO": {"n": 0, "X": [], "Y": []},
    "BAD": {"n": 2, "X": [["1", "0"], ["0", "2"]], "Y": [["0", "1"], ["0", "0"]]},
}

# (argv, exit code, stdout) for every subcommand in text and JSON mode.  A
# str is the exact stdout; a dict or list stands for its json.dumps(...,
# indent=2) text plus a newline, which pins key order and layout as well.
GOLDEN = [
    (("nf", "x^2*y"), 0, "y*x^2 + 2*y^2*x + 2*y^3\n"),
    (("nf", "x^2*y", "--json"), 0, {"normal_form": "y*x^2 + 2*y^2*x + 2*y^3"}),
    (("mul", "y*x", "x*y"), 0, "y^2*x^2 + 2*y^3*x + 2*y^4\n"),
    (("mul", "y*x", "x*y", "--json"), 0, {"product": "y^2*x^2 + 2*y^3*x + 2*y^4"}),
    (("hilbert", "--max-degree", "3"), 0, "0: 1\n1: 2\n2: 3\n3: 4\n"),
    (("hilbert", "--max-degree", "3", "--json"), 0, {"dims": [1, 2, 3, 4]}),
    (("gb-check",), 0, "overlaps: 0\nconfluent: pass\n"),
    (("gb-check", "--json"), 0, {"overlaps": [], "confluent": True}),
    (("rep", "build", "--partition", "2"),
     0,
     {"n": 2, "X": [["0", "0"], ["0", "0"]], "Y": [["0", "1"], ["0", "0"]], "partition": [2]}),
    (("rep", "build", "--partition", "2", "--json"),
     0,
     {"n": 2, "X": [["0", "0"], ["0", "0"]], "Y": [["0", "1"], ["0", "0"]], "partition": [2]}),
    (("rep", "build", "--partition", "3", "--canonical", "1/2,-1/3"),
     0,
     {"n": 3,
      "X": [["1/2", "-1/3", "0"], ["0", "1/2", "-4/3"], ["0", "0", "1/2"]],
      "Y": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
      "partition": [3]}),
    (("rep", "build", "--partition", "3", "--canonical", "1/2,-1/3", "--json"),
     0,
     {"n": 3,
      "X": [["1/2", "-1/3", "0"], ["0", "1/2", "-4/3"], ["0", "0", "1/2"]],
      "Y": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
      "partition": [3]}),
    (("rep", "build", "--partition", "2,1", "--seed", "3"),
     0,
     {"n": 3,
      "X": [["9", "-1", "1/2"], ["0", "9", "0"], ["0", "-9/4", "-1/2"]],
      "Y": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
      "partition": [2, 1]}),
    (("rep", "build", "--partition", "2,1", "--seed", "3", "--json"),
     0,
     {"n": 3,
      "X": [["9", "-1", "1/2"], ["0", "9", "0"], ["0", "-9/4", "-1/2"]],
      "Y": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
      "partition": [2, 1]}),
    (("rep", "verify", "SEEDED"), 0, "ok\n"),
    (("rep", "verify", "SEEDED", "--json"), 0, {"ok": True, "n": 3}),
    (("rep", "verify", "BAD"), 1, "violation: XY - YX - Y^2 =\n0 -1\n0  0\n"),
    (("rep", "verify", "BAD", "--json"),
     1,
     {"ok": False, "residual": [["0", "-1"], ["0", "0"]]}),
    (("rep", "eval", "SEEDED", "x*y"), 0, "0 9 0\n0 0 0\n0 0 0\n"),
    (("rep", "eval", "SEEDED", "x*y", "--json"),
     0,
     {"rows": 3, "cols": 3, "entries": [["0", "9", "0"], ["0", "0", "0"], ["0", "0", "0"]]}),
    (("rep", "eval", "ZERO", "x"), 0, "\n"),
    (("rep", "eval", "ZERO", "x", "--json"), 0, {"rows": 0, "cols": 0, "entries": []}),
    (("image", "dim", "SEEDED"), 0, "3\n"),
    (("image", "dim", "SEEDED", "--json"), 0, "3\n"),
    (("image", "relations", "SEEDED", "--max-degree", "2"),
     0,
     "x^2 - 17/2*x + 85/8*y - 9/2\ny*x - 9*y\ny^2\n"),
    (("image", "relations", "SEEDED", "--max-degree", "2", "--json"),
     0,
     {"relations": ["x^2 - 17/2*x + 85/8*y - 9/2", "y*x - 9*y", "y^2"]}),
    (("image", "relations", "ONE", "--max-degree", "0"), 0, ""),
    (("image", "relations", "ONE", "--max-degree", "0", "--json"), 0, {"relations": []}),
    (("image", "quiver", "SEEDED"), 0, "vertices: -1/2 9\n0 0\n0 1\n"),
    (("image", "quiver", "SEEDED", "--json"),
     0,
     {"vertices": ["-1/2", "9"], "arrows": [[0, 0], [0, 1]]}),
    (("image", "quiver", "ZERO"), 0, "vertices: \n"),
    (("image", "quiver", "ZERO", "--json"), 0, {"vertices": [], "arrows": []}),
    (("image", "quotient-codim", "CANON", "--gens", "y^2"), 0, "3\n"),
    (("image", "quotient-codim", "CANON", "--gens", "y^2", "--json"), 0, "3\n"),
    (("strata", "census", "--n", "3"),
     0,
     "partition=3 fiber=3 base=6 stratum=9 bound=4 tame=tame\n"
     "partition=2,1 fiber=5 base=4 stratum=9 bound=4 tame=unknown\n"
     "partition=1,1,1 fiber=9 base=0 stratum=9 bound=4 tame=unknown\n"),
    (("strata", "census", "--n", "3", "--json"),
     0,
     [{"partition": [3],
       "fiber_dim": 3,
       "base_dim": 6,
       "stratum_dim": 9,
       "image_dim_bound": 4,
       "tame": "tame"},
      {"partition": [2, 1],
       "fiber_dim": 5,
       "base_dim": 4,
       "stratum_dim": 9,
       "image_dim_bound": 4,
       "tame": "unknown"},
      {"partition": [1, 1, 1],
       "fiber_dim": 9,
       "base_dim": 0,
       "stratum_dim": 9,
       "image_dim_bound": 4,
       "tame": "unknown"}]),
    (("faithful", "y"), 0, "2\n"),
    (("faithful", "y", "--json"), 0, {"witness": 2, "result": "witness"}),
    (("faithful", "x"), 0, "not-found-below-max\n"),
    (("faithful", "x", "--json"), 0, {"witness": None, "result": "not-found-below-max"}),
    (("faithful", "x*y - y*x - y^2"), 0, "in-ideal\n"),
    (("faithful", "x*y - y*x - y^2", "--json"), 0, {"witness": None, "result": "in-ideal"}),
    (("decompose", "SEEDED"), 0, "summands: 2\n  n=1 eigenvalue=-1/2\n  n=2 eigenvalue=9\n"),
    (("decompose", "SEEDED", "--json"),
     0,
     {"summands": [{"n": 1, "X": [["-1/2"]], "Y": [["0"]]},
                   {"n": 2,
                    "X": [["9", "85/18"], ["0", "9"]],
                    "Y": [["0", "-38/9"], ["0", "0"]]}],
      "eigenvalues": ["-1/2", "9"],
      "change_of_basis": [["-1/19", "1", "0"], ["0", "0", "-38/9"], ["1", "0", "1"]]}),
    (("orbit", "jacobian-rank", "--n", "4"), 0, "2\n"),
    (("orbit", "jacobian-rank", "--n", "4", "--json"), 0, "2\n"),
    (("canonical", "extract", "CANON"), 0, "lambda=1/2 mu=-1/3\n"),
    (("canonical", "extract", "CANON", "--json"), 0, {"lambda": "1/2", "mu": "-1/3"}),
]


@pytest.mark.parametrize("argv, code, expected", GOLDEN,
                         ids=["_".join(argv) for argv, _, _ in GOLDEN])
def test_golden_stdout(capture, tmp_path, argv, code, expected):
    for name, rep in GOLDEN_REP_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(rep))
    got_code, out, err = capture(
        *[str(tmp_path / f"{a}.json") if a in GOLDEN_REP_FILES else a for a in argv])
    if not isinstance(expected, str):
        expected = json.dumps(expected, indent=2) + "\n"
    assert (got_code, out) == (code, expected)
    if code == 0:
        assert err == ""


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
    assert err == "error: RelationViolationError: XY - YX != Y^2\n"
    code, out, err = capture("rep", "verify", str(path))
    assert code == 1
    assert out == "violation: XY - YX - Y^2 =\n0 -1\n0  0\n"
    assert err == "error: RelationViolationError: XY - YX != Y^2\n"


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


def test_decompose_61_bit_eigenvalues(capture, tmp_path):
    """Eigenvalues with 61-bit numerators: a rational-root search by
    divisors of the characteristic polynomial's coefficients never ends."""
    m = 2 ** 61 - 1
    blocks = [RepPair(x_zero(k) + QMatrix.identity(k).scale(lam), jordan_block(k))
              for k, lam in ((3, Fraction(m, 3)), (2, Fraction(-m, 5)))]
    assembled = RepPair(block_diag([b.X for b in blocks]), block_diag([b.Y for b in blocks]))
    c, c_inv = rand_unimodular(random.Random(61), assembled.n)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(rep_to_json(conjugate(assembled, c, c_inv))))
    code, out, _ = capture("decompose", str(path))
    assert code == 0
    assert out == f"summands: 2\n  n=2 eigenvalue={-m}/5\n  n=3 eigenvalue={m}/3\n"


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


def test_canonical_extract_empty_rep_is_not_full_block(capture, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "X": [], "Y": []}))
    code, out, err = capture("canonical", "extract", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: NotFullBlockJordanCoordinatesError: ")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [("faithful", "x^2", "--max-n", "0"),
                                  ("faithful", "x^2", "--max-n", "-2"),
                                  ("image", "relations", "REP", "--max-degree", "-1"),
                                  ("rep", "build", "--partition", "3", "--canonical", "1/0,2"),
                                  ("rep", "build", "--partition", "3", "--canonical", "a,2"),
                                  ("rep", "build", "--partition", "3", "--canonical", ",2"),
                                  ("rep", "build", "--partition", "3", "--canonical", "1e400,0")])
def test_out_of_range_limit_is_an_error(capture, tmp_path, argv):
    code, out, _ = capture("rep", "build", "--partition", "2")
    path = tmp_path / "eps2.json"
    path.write_text(out)
    code, out, err = capture(*[str(path) if a == "REP" else a for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: OutOfRangeError: ")
    assert err.count("\n") == 1


MALFORMED_REP_FILES = {
    "top_level_array": "[1, 2]",
    "integer_entries": json.dumps({"n": 1, "X": [[0]], "Y": [[0]]}),
    "null_entry": json.dumps({"n": 1, "X": [[None]], "Y": [["0"]]}),
    "scalar_matrix": json.dumps({"n": 1, "X": 5, "Y": [["0"]]}),
    "missing_key": json.dumps({"n": 1, "X": [["0"]]}),
    "string_n": json.dumps({"n": "1", "X": [["0"]], "Y": [["0"]]}),
    "wrong_shape": json.dumps({"n": 2, "X": [["0"]], "Y": [["0"]]}),
    "bad_rational": json.dumps({"n": 1, "X": [["1/0"]], "Y": [["0"]]}),
    "exponent_entry": json.dumps({"n": 1, "X": [["1e400"]], "Y": [["0"]]}),
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


@pytest.mark.parametrize("poly", ["9" * 5000, "x^" + "9" * 5000])
def test_over_long_number_is_parse_error(capture, poly):
    code, out, err = capture("nf", poly)
    assert code == 1
    assert out == ""
    assert err.startswith("error: PolyParseError: ")


@pytest.mark.parametrize("argv", [("nf", "x^3000*y"), ("mul", "x^2000", "y^2")])
def test_unprintably_long_coefficient_is_out_of_range(capture, argv):
    # A few bytes of input whose result has a coefficient of more digits
    # than the interpreter converts to text.
    assert all(len(a) <= 16 for a in argv)
    code, out, err = capture(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: OutOfRangeError: a number of about ")
    assert err.count("\n") == 1


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
