"""CLI golden outputs, exit codes, file round-trips and determinism."""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from jordanlab import Partition, QMatrix, RepPair, block_diag, conjugate
from jordanlab.cli import COMMANDS, GROUPS, build_parser, rep_to_json, run
from jordanlab.reps import fiber_basis, jordan_block, jordan_matrix, x_zero
from jordanlab.sampling import rand_rep, rand_unimodular


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


def test_faithful_large_degree_is_read_off(capture):
    # the witness d + 2 of x^d comes from the normal form, not from
    # evaluating x^200 at epsilon_1 .. epsilon_202
    start = time.perf_counter()
    code, out, _ = capture("faithful", "x^200")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "202\n")


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
    "deep_nesting": "[" * 100_000 + "]" * 100_000,  # json's RecursionError
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
    # a word of 10^20 letters is refused by the letter cap before it is built
    for poly in ("x^0", "x^99999999999999999999"):
        code, out, err = capture("nf", poly)
        assert code == 1
        assert out == ""
        assert err.startswith("error: PolyParseError: ")
        assert err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [("nf", "x^50000*y^49999"), ("mul", "x^50000", "y^49999"),
                                  ("faithful", "x^50000*y^49999")])
def test_expansion_over_budget_is_refused_at_once(capture, argv):
    # The normal form of x^50000*y^49999 has 50001 coefficients of up to
    # about 10^6 bits; the size bound refuses it before it is expanded.
    assert all(len(a) <= 16 for a in argv)
    start = time.perf_counter()
    code, out, err = capture(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: OutOfRangeError: the normal form of x^50000*y^49999 ")
    assert err.count("\n") == 1


def test_expansions_of_one_call_share_one_budget(capture):
    # Each x^b*y here is admitted alone (about 2^30 bits); the three of one
    # call are refused at the second, without the 586 MB they once took.
    start = time.perf_counter()
    code, out, err = capture("nf", "x^8400*y+x^8399*y+x^8398*y")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: OutOfRangeError: the normal form of x^8399*y^1 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, expected", [
    (("rep", "eval", "REP", "y^99999"), "0 0\n0 0\n"),
    (("rep", "eval", "REP", "y^99990+x*y"), "0 3\n0 0\n"),  # Y X + Y^2 = 3Y
    (("image", "quotient-codim", "REP", "--gens", "y^99999"), "2\n"),
])
def test_high_powers_of_y_vanish_on_a_rep_at_once(capture, tmp_path, argv, expected):
    # Y is nilpotent, so Y^k = 0 for k >= n; the dense table of a 2x2 rep
    # once had 10^5 rows of 10^5 entries here.
    assert len(argv[3]) <= 16 and len(argv[-1]) <= 16
    code, out, _ = capture("rep", "build", "--partition", "2", "--canonical", "3,1")
    path = tmp_path / "rep2.json"
    path.write_text(out)
    start = time.perf_counter()
    code, out, err = capture(*[str(path) if a == "REP" else a for a in argv])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv", [("strata", "census", "--n", "100000"),
                                  ("strata", "census", "--n", "31"),
                                  ("hilbert", "--max-degree", "99999999"),
                                  ("hilbert", "--max-degree", "10001"),
                                  ("orbit", "jacobian-rank", "--n", "99999"),
                                  ("orbit", "jacobian-rank", "--n", "101"),
                                  ("orbit", "jacobian-rank", "--n", "1"),
                                  ("rep", "build", "--partition", "99999"),
                                  ("rep", "build", "--partition", "26,25"),
                                  ("image", "relations", "REP", "--max-degree", "99999"),
                                  ("image", "relations", "REP", "--max-degree", "31")])
def test_unbounded_output_is_capped(capture, tmp_path, argv):
    # p(N) census rows, N + 1 hilbert lines, the Jacobian rank, the fiber
    # solve of ``rep build`` and the relation kernel are capped, so a few
    # bytes of input are refused at once.
    assert len(argv[-1]) <= 16
    code, out, _ = capture("rep", "build", "--partition", "2")
    path = tmp_path / "eps2.json"
    path.write_text(out)
    start = time.perf_counter()
    code, out, err = capture(*[str(path) if a == "REP" else a for a in argv])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error: OutOfRangeError: ")
    assert err.count("\n") == 1


def test_capped_options_accept_their_caps(capture, tmp_path):
    code, out, _ = capture("hilbert", "--max-degree", "10000")
    assert code == 0
    assert out.splitlines()[-1] == "10000: 10001"
    code, out, _ = capture("strata", "census", "--n", "30")
    assert code == 0
    assert len(out.splitlines()) == 5604
    code, out, _ = capture("orbit", "jacobian-rank", "--n", "100")
    assert (code, out) == (0, "98\n")
    code, out, _ = capture("rep", "build", "--partition", "25,25")
    assert code == 0
    assert json.loads(out)["n"] == 50
    code, out, _ = capture("rep", "build", "--partition", "2")
    path = tmp_path / "eps2.json"
    path.write_text(out)
    code, out, _ = capture("image", "relations", str(path), "--max-degree", "30")
    assert code == 0


def test_relations_of_a_fractional_rep_at_the_degree_cap(capture, tmp_path):
    # A seeded rep with fractional entries at d = 30: each column of the
    # evaluation matrix is one product from an earlier column, not a
    # Horner evaluation of its own, and the output is the one the
    # per-monomial evaluation printed (its sha256 below).
    path = tmp_path / "rep10.json"
    path.write_text(json.dumps(rep_to_json(rand_rep(random.Random(1), 10))))
    start = time.perf_counter()
    code, out, err = capture("image", "relations", str(path), "--max-degree", "30")
    assert time.perf_counter() - start < 1.5
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == len(set(out.splitlines())) > 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dd77ac5b3aed1ed8e5ec874db5963d109744aebc0dec320e27b4e8c729b5199e")


def test_relations_work_is_capped_by_dimension_and_degree(capture, tmp_path):
    # n^2*(d+1)(d+2)/2 <= 50000: at n = 50 that is 37500 for d = 4 and
    # 52500 for d = 5, which is refused before any evaluation.
    code, out, _ = capture("rep", "build", "--partition", "25,25")
    path = tmp_path / "rep50.json"
    path.write_text(out)
    code, out, err = capture("image", "relations", str(path), "--max-degree", "4")
    assert (code, out, err) == (0, "", "")  # two 25-blocks: no relation of degree <= 4
    start = time.perf_counter()
    code, out, err = capture("image", "relations", str(path), "--max-degree", "5")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == ("error: OutOfRangeError: n^2*(d+1)(d+2)/2 at n = 50 must be in "
                   "[0, 50000], got 52500\n")


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


# -- fresh interpreters ------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports the package from src/."""
    env = {k: v for k, v in os.environ.items() if k != "JORDAN_LAB_SEED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


# "REP" stands for a rep file written by ``rep build``, "BAD" for one with a
# number where a rational string belongs.
FRESH_COMMANDS = [
    ("nf", "x^3*y^2"),
    ("mul", "y*x", "x^2*y"),
    ("rep", "build", "--partition", "3,2", "--seed", "1"),
    ("rep", "verify", "REP"),
    ("image", "dim", "REP"),
    ("orbit", "jacobian-rank", "--n", "8", "--seed", "1"),
    ("nf", "x*y", "--json"),
    ("rep", "verify", "BAD"),
    ("--help",),
    ("rep", "--help"),
]


@pytest.mark.parametrize("argv", FRESH_COMMANDS, ids=" ".join)
def test_fresh_interpreter_matches_run(capture, monkeypatch, tmp_path, argv):
    """Each command imports in a new interpreter what it needs, which an
    in-process run() with the test suite's imports would not show."""
    monkeypatch.delenv("JORDAN_LAB_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    files = {"REP": tmp_path / "rep.json", "BAD": tmp_path / "bad.json"}
    files["REP"].write_text(capture("rep", "build", "--partition", "3,2", "--seed", "1")[1])
    files["BAD"].write_text(json.dumps({"n": 1, "X": [[5]], "Y": [["0"]]}))
    argv = [str(files[a]) if a in files else a for a in argv]
    expected = capture(*argv)
    done = fresh_python("-m", "jordanlab.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    """Against a bare interpreter, which site hooks may already have given
    some modules, importing the CLI adds none of these."""
    show = "import sys; print(*sorted(sys.modules))"
    bare = set(fresh_python("-c", show).stdout.split())
    loaded = set(fresh_python("-c", "import jordanlab.cli; " + show).stdout.split())
    assert "jordanlab.cli" in loaded
    assert not {"dataclasses", "inspect", "json"} & (loaded - bare)


@pytest.mark.parametrize("parts", ["1", "3,2", "4,4,1", "2,2,2,1,1", "5,3,3,1", ",".join("1" * 50)],
                         ids=lambda parts: parts if len(parts) < 20 else "1x50")
def test_rep_build_particular_builds_no_fiber_basis(capture, parts):
    """Without --seed or --canonical, rep build prints the particular
    solution of fiber_basis and does not build the centralizer basis."""
    partition = Partition.of(int(p) for p in parts.split(","))
    fiber_basis.cache_clear()
    code, out, err = capture("rep", "build", "--partition", parts)
    assert fiber_basis.cache_info().misses == 0
    rep = RepPair(fiber_basis(partition).particular, jordan_matrix(partition))
    assert (code, err) == (0, "")
    assert out == json.dumps(rep_to_json(rep, partition), indent=2) + "\n"


# -- the command table --------------------------------------------------------


def test_every_command_row_dispatches_to_its_handler():
    """Each row of COMMANDS, its arguments filled in, parses to its own
    handler, with its own name in the subparser dest of each level."""
    assert len({path for path, *_ in COMMANDS}) == len(COMMANDS) == 16
    assert {path.split()[0] for path, *_ in COMMANDS if " " in path} == set(GROUPS)
    parser = build_parser()
    for path, func, _, arguments in COMMANDS:
        argv = path.split()
        for flag, options in arguments:
            if not flag.startswith("-"):
                argv.append("1")
            elif options.get("required"):
                argv += [flag, "1"]
        args = parser.parse_args(argv)
        assert args.func is func, path
        group, _, name = path.rpartition(" ")
        assert args.command == (group or name)
        if group:
            assert getattr(args, f"{group}_command") == name


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_run(capture, monkeypatch, tmp_path):
    """Each line of the README's CLI example block exits 0 (``> file`` is
    honoured), and a line with a comment prints it, " / " between lines."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = next(block for block in blocks if block.startswith("jordanlab ")).splitlines()
    assert len(lines) == 18
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("JORDAN_LAB_SEED", raising=False)
    for line in lines:
        command, _, expected = line.partition("#")
        argv = shlex.split(command)
        assert argv.pop(0) == "jordanlab", line
        redirect = None
        if ">" in argv:
            argv, redirect = argv[:argv.index(">")], argv[-1]
        code, out, err = capture(*argv)
        assert (code, err) == (0, ""), line
        if expected.strip():
            assert out == expected.strip().replace(" / ", "\n") + "\n", line
        if redirect is not None:
            Path(redirect).write_text(out)
