"""Command-line interface; deterministic output for golden-file testing.

Exit codes: 0 success, 1 domain error (typed message on stderr), 2 usage
error.  A global --seed (default 0, overridable by JORDAN_LAB_SEED) feeds
every randomized subroutine; --json switches to the documented JSON schemas.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .errors import InputFormatError, JordanLabError, OutOfRangeError
from .freealg import (
    hilbert_dim,
    jordan_system,
    normal_form,
    multiply,
    overlaps,
    parse_poly,
)
from .imagealg import discover_relations, ideal_codim, image_algebra, quiver
from .matrices import QMatrix, block_diag, matrix_to_json
from .reps import (
    Partition,
    RepPair,
    Violation,
    WitnessResult,
    canonical_pair,
    evaluate,
    extract_params,
    faithful_witness,
    jordan_matrix,
    verify_rep,
    x_zero,
)
from .sampling import rand_fiber_point, rand_rational
from .scalars import parse_scalar, scalar_str
from .strata import census, decompose, jacobian_rank


def rep_to_json(rep: RepPair, partition: "Partition | None" = None) -> dict:
    out = {
        "n": rep.n,
        "X": [[scalar_str(rep.X[i, j]) for j in range(rep.n)] for i in range(rep.n)],
        "Y": [[scalar_str(rep.Y[i, j]) for j in range(rep.n)] for i in range(rep.n)],
    }
    if partition is not None:
        out["partition"] = list(partition.parts)
    return out


def _matrix_from_lists(data, n: int, key: str) -> QMatrix:
    if (not isinstance(data, list) or len(data) != n
            or any(not isinstance(row, list) or len(row) != n for row in data)):
        raise InputFormatError(f"{key!r} must be a list of {n} lists of {n} entries")
    entries = []
    for row in data:
        for v in row:
            if not isinstance(v, str):
                raise InputFormatError(
                    f"entries of {key!r} must be rational strings, got {json.dumps(v)}")
            try:
                entries.append(parse_scalar(v))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputFormatError(f"bad entry {v!r} in {key!r}") from exc
    return QMatrix(n, n, tuple(entries))


def load_matrix_pair(path: str) -> "tuple[QMatrix, QMatrix]":
    """The (X, Y) of a representation file; InputFormatError unless it is a
    JSON object with an integer "n" and n x n lists of rational strings."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputFormatError("a representation file must hold a JSON object")
    missing = [key for key in ("n", "X", "Y") if key not in data]
    if missing:
        raise InputFormatError(f"missing key(s): {', '.join(missing)}")
    n = data["n"]
    if type(n) is not int:
        raise InputFormatError(f'"n" must be an integer, got {json.dumps(n)}')
    return _matrix_from_lists(data["X"], n, "X"), _matrix_from_lists(data["Y"], n, "Y")


def load_rep(path: str) -> RepPair:
    x, y = load_matrix_pair(path)
    return RepPair(x, y)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.of(int(p) for p in text.split(","))
    except ValueError as exc:
        raise OutOfRangeError(f"bad partition {text!r}: {exc}") from exc


def _effective_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("JORDAN_LAB_SEED")
    return int(env) if env else 0


# -- handlers ----------------------------------------------------------------


def _cmd_nf(args) -> int:
    result = normal_form(parse_poly(args.poly))
    if args.json:
        _emit({"normal_form": str(result)})
    else:
        print(result)
    return 0


def _cmd_mul(args) -> int:
    product = multiply(normal_form(parse_poly(args.left)),
                       normal_form(parse_poly(args.right)))
    if args.json:
        _emit({"product": str(product)})
    else:
        print(product)
    return 0


def _cmd_hilbert(args) -> int:
    if args.max_degree < 0:
        raise OutOfRangeError(f"--max-degree must be >= 0, got {args.max_degree}")
    dims = [hilbert_dim(d) for d in range(args.max_degree + 1)]
    if args.json:
        _emit({"dims": dims})
    else:
        for d, v in enumerate(dims):
            print(f"{d}: {v}")
    return 0


def _cmd_gb_check(args) -> int:
    """List the ambiguities of xy -> yx + y^2 and report confluence.

    ``overlaps`` lists overlaps and inclusions alike; the one leading word
    xy has neither, and a terminating system without ambiguities is
    confluent by Bergman's diamond lemma (Adv. Math. 29, 1978, Thm 1.2).
    """
    ambiguities = overlaps(jordan_system())
    confluent = not ambiguities
    if args.json:
        _emit({
            "overlaps": [[w, i, j] for w, i, j in ambiguities],
            "confluent": confluent,
        })
    else:
        print(f"overlaps: {len(ambiguities)}")
        print(f"confluent: {'pass' if confluent else 'fail'}")
    return 0


def _cmd_rep_build(args) -> int:
    partition = _parse_partition(args.partition)
    y = jordan_matrix(partition)
    if args.canonical is not None:
        if len(partition.parts) != 1:
            raise OutOfRangeError("--canonical requires a single-part partition")
        lam_text, _, mu_text = args.canonical.partition(",")
        try:
            lam, mu = parse_scalar(lam_text), parse_scalar(mu_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise OutOfRangeError(
                f"--canonical expects rationals LAMBDA,MU, got {args.canonical!r}") from exc
        rep = canonical_pair(lam, mu, partition.n)
    elif args.seed is not None:
        rep = RepPair(rand_fiber_point(random.Random(args.seed), partition), y)
    else:
        rep = RepPair(block_diag([x_zero(k) for k in partition.parts]), y)
    _emit(rep_to_json(rep, partition))
    return 0


def _cmd_rep_verify(args) -> int:
    x, y = load_matrix_pair(args.file)
    result = verify_rep(x, y)
    if isinstance(result, Violation):
        if args.json:
            _emit({"ok": False, "residual": matrix_to_json(result.residual)["entries"]})
        else:
            print("violation: XY - YX - Y^2 =")
            print(result.residual)
        print("error: RelationViolation: XY - YX != Y^2", file=sys.stderr)
        return 1
    if args.json:
        _emit({"ok": True, "n": result.n})
    else:
        print("ok")
    return 0


def _cmd_rep_eval(args) -> int:
    rep = load_rep(args.file)
    value = evaluate(parse_poly(args.poly), rep)
    if args.json:
        _emit(matrix_to_json(value))
    else:
        print(value)
    return 0


def _cmd_image_dim(args) -> int:
    print(image_algebra(load_rep(args.file)).dim)
    return 0


def _cmd_image_relations(args) -> int:
    relations = discover_relations(load_rep(args.file), args.max_degree)
    if args.json:
        _emit({"relations": [str(r) for r in relations]})
    else:
        for r in relations:
            print(r)
    return 0


def _cmd_image_quiver(args) -> int:
    data = quiver(image_algebra(load_rep(args.file)))
    if args.json:
        _emit(data.to_json())
    else:
        print("vertices: " + " ".join(scalar_str(v) for v in data.vertices))
        for row in data.arrows:
            print(" ".join(str(v) for v in row))
    return 0


def _cmd_image_quotient_codim(args) -> int:
    algebra = image_algebra(load_rep(args.file))
    gens = [parse_poly(g) for g in args.gens]
    print(ideal_codim(algebra, gens))
    return 0


def _cmd_strata_census(args) -> int:
    rows = census(args.n)
    if args.json:
        _emit([row.to_json() for row in rows])
    else:
        for row in rows:
            print(f"partition={row.partition} fiber={row.fiber_dim} "
                  f"base={row.base_dim} stratum={row.stratum_dim} "
                  f"bound={row.image_dim_bound} tame={row.tame.value}")
    return 0


def _cmd_faithful(args) -> int:
    result = faithful_witness(parse_poly(args.poly), args.max_n)
    if isinstance(result, WitnessResult):
        if args.json:
            _emit({"witness": None, "result": result.value})
        else:
            print(result.value)
    else:
        if args.json:
            _emit({"witness": result, "result": "witness"})
        else:
            print(result)
    return 0


def _cmd_decompose(args) -> int:
    result = decompose(load_rep(args.file))
    if args.json:
        _emit({
            "summands": [rep_to_json(s) for s in result.summands],
            "eigenvalues": [scalar_str(v) for v in result.eigenvalues],
            "change_of_basis": [[scalar_str(result.change_of_basis[i, j])
                                 for j in range(result.change_of_basis.cols)]
                                for i in range(result.change_of_basis.rows)],
        })
    else:
        print(f"summands: {len(result)}")
        for lam, s in zip(result.eigenvalues, result.summands):
            print(f"  n={s.n} eigenvalue={scalar_str(lam)}")
    return 0


def _cmd_orbit_jacobian_rank(args) -> int:
    rng = random.Random(_effective_seed(args))
    n = args.n
    c_coeffs = [rand_rational(rng) for _ in range(max(0, n - 1))]
    x_coeffs = [rand_rational(rng) for _ in range(max(0, n - 1))]
    print(jacobian_rank(n, c_coeffs, x_coeffs))
    return 0


def _cmd_canonical_extract(args) -> int:
    params = extract_params(load_rep(args.file))
    if args.json:
        _emit({"lambda": scalar_str(params.lam), "mu": scalar_str(params.mu)})
    else:
        print(f"lambda={scalar_str(params.lam)} mu={scalar_str(params.mu)}")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized subroutines (default 0 or "
                             "JORDAN_LAB_SEED)")

    parser = argparse.ArgumentParser(
        prog="jordanlab",
        description="Exact computations with representations of the quadratic "
                    "algebra k<x,y>/(xy - yx - y^2)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", parents=[common], help="normal form of a polynomial")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("mul", parents=[common], help="product in normal form")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("hilbert", parents=[common], help="graded dimensions")
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("gb-check", parents=[common],
                       help="overlap/confluence check of the rewriting system")
    p.set_defaults(func=_cmd_gb_check)

    rep = sub.add_parser("rep", help="build, verify and evaluate representations")
    rep_sub = rep.add_subparsers(dest="rep_command", required=True)

    p = rep_sub.add_parser("build", parents=[common])
    p.add_argument("--partition", required=True, help="e.g. 5 or 3,2,1")
    p.add_argument("--canonical", help="LAMBDA,MU for the full-block normal form")
    p.set_defaults(func=_cmd_rep_build)

    p = rep_sub.add_parser("verify", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_rep_verify)

    p = rep_sub.add_parser("eval", parents=[common])
    p.add_argument("file")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_rep_eval)

    image = sub.add_parser("image", help="image-algebra analysis")
    image_sub = image.add_subparsers(dest="image_command", required=True)

    p = image_sub.add_parser("dim", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_image_dim)

    p = image_sub.add_parser("relations", parents=[common])
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=_cmd_image_relations)

    p = image_sub.add_parser("quiver", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_image_quiver)

    p = image_sub.add_parser("quotient-codim", parents=[common])
    p.add_argument("file")
    p.add_argument("--gens", nargs="+", required=True)
    p.set_defaults(func=_cmd_image_quotient_codim)

    strata = sub.add_parser("strata", help="stratum census")
    strata_sub = strata.add_subparsers(dest="strata_command", required=True)

    p = strata_sub.add_parser("census", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_strata_census)

    p = sub.add_parser("faithful", parents=[common],
                       help="least n with a nonzero image under epsilon_n")
    p.add_argument("poly")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=_cmd_faithful)

    p = sub.add_parser("decompose", parents=[common],
                       help="split on generalized eigenspaces of X")
    p.add_argument("file")
    p.set_defaults(func=_cmd_decompose)

    orbit = sub.add_parser("orbit", help="orbit-map diagnostics")
    orbit_sub = orbit.add_subparsers(dest="orbit_command", required=True)

    p = orbit_sub.add_parser("jacobian-rank", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_orbit_jacobian_rank)

    canonical = sub.add_parser("canonical", help="canonical full-block parameters")
    canonical_sub = canonical.add_subparsers(dest="canonical_command", required=True)

    p = canonical_sub.add_parser("extract", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_canonical_extract)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except JordanLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
