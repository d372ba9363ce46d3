"""Command-line interface; deterministic output for golden-file testing.

Exit codes: 0 success, 1 domain error (typed message on stderr), 2 usage
error.  A global --seed (default 0, overridable by JORDAN_LAB_SEED) feeds
every randomized subroutine; --json switches to the documented JSON schemas.
Each command is one row of COMMANDS (path, handler, help, arguments), from
which build_parser makes the parser; the handlers write through _output.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .errors import InputFormatError, JordanLabError, OutOfRangeError, RelationViolationError
from .freealg import (
    hilbert_dim,
    jordan_system,
    normal_form,
    multiply,
    overlaps,
    parse_poly,
)
from .imagealg import discover_relations, ideal_codim, image_algebra, quiver
from .matrices import matrix_to_json, parse_matrix
from .reps import (
    Partition,
    RepPair,
    WitnessResult,
    _particular_solution,
    canonical_pair,
    evaluate,
    extract_params,
    faithful_witness,
    jordan_matrix,
)
from .sampling import rand_fiber_point, rand_rational
from .scalars import parse_scalar, scalar_str
from .strata import census, decompose, jacobian_rank


def rep_to_json(rep: RepPair, partition: "Partition | None" = None) -> dict:
    out = {
        "n": rep.n,
        "X": matrix_to_json(rep.X)["entries"],
        "Y": matrix_to_json(rep.Y)["entries"],
    }
    if partition is not None:
        out["partition"] = list(partition.parts)
    return out


def load_rep(path: str) -> RepPair:
    """The pair of a representation file; InputFormatError unless it is a
    JSON object with an integer "n" and n x n lists of rational strings."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise InputFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputFormatError("a representation file must hold a JSON object")
    missing = [key for key in ("n", "X", "Y") if key not in data]
    if missing:
        raise InputFormatError(f"missing key(s): {', '.join(missing)}")
    n = data["n"]
    if type(n) is not int:
        raise InputFormatError(f'"n" must be an integer, got {json.dumps(n)}')
    return RepPair(parse_matrix(data["X"], n, n, "X"), parse_matrix(data["Y"], n, n, "Y"))


def _output(args, payload, *lines) -> None:
    """Print ``payload`` as indented JSON under --json, else each of ``lines``.

    The one reader of ``args.json``; with no lines, text mode prints nothing.
    """
    if args.json:
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _parse_partition(text: str) -> Partition:
    try:
        return Partition.of(int(p) for p in text.split(","))
    except ValueError as exc:
        raise OutOfRangeError(f"bad partition {text!r}: {exc}") from exc


# Caps on the options whose output or work grows without bound in the
# length of the input: ``strata census --n N`` prints p(N) rows (p(30) =
# 5604), ``hilbert --max-degree N`` prints N + 1 lines, ``rep build --seed``
# draws a point of a centralizer of dimension up to n^2 (n parts of 1), ``image
# relations --max-degree d`` takes the kernel of an n^2 x (d+1)(d+2)/2
# matrix, so both d and that entry count are capped (a short command can
# name a large rep file), and ``orbit jacobian-rank --n N`` the rank of an
# (N-1) x N matrix whose rational entries grow in length with N.
CENSUS_MAX_N = 30
HILBERT_MAX_DEGREE = 10_000
REP_MAX_N = 50
RELATIONS_MAX_DEGREE = 30
RELATIONS_MAX_ENTRIES = 50_000
JACOBIAN_MAX_N = 100


def _capped(option: str, value: int, low: int, high: int) -> int:
    if not low <= value <= high:
        raise OutOfRangeError(f"{option} must be in [{low}, {high}], got {value}")
    return value


def _effective_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("JORDAN_LAB_SEED") or 0)


# -- handlers: each writes through _output once; errors propagate to run ------


def _cmd_nf(args) -> None:
    result = normal_form(parse_poly(args.poly))
    _output(args, {"normal_form": str(result)}, result)


def _cmd_mul(args) -> None:
    product = multiply(normal_form(parse_poly(args.left)),
                       normal_form(parse_poly(args.right)))
    _output(args, {"product": str(product)}, product)


def _cmd_hilbert(args) -> None:
    max_degree = _capped("--max-degree", args.max_degree, 0, HILBERT_MAX_DEGREE)
    dims = [hilbert_dim(d) for d in range(max_degree + 1)]
    _output(args, {"dims": dims}, *(f"{d}: {v}" for d, v in enumerate(dims)))


def _cmd_gb_check(args) -> None:
    """List the ambiguities of xy -> yx + y^2 and report confluence.

    ``overlaps`` lists overlaps and inclusions alike; the one leading word
    xy has neither, and a terminating system without ambiguities is
    confluent by Bergman's diamond lemma (Adv. Math. 29, 1978, Thm 1.2).
    """
    ambiguities = overlaps(jordan_system())
    confluent = not ambiguities
    _output(args, {"overlaps": [[w, i, j] for w, i, j in ambiguities], "confluent": confluent},
            f"overlaps: {len(ambiguities)}", f"confluent: {'pass' if confluent else 'fail'}")


def _cmd_rep_build(args) -> None:
    """Print a pair with Y = jordan_matrix(p): ``canonical_pair``, else the
    seeded ``rand_fiber_point`` or the particular solution.  Those two are
    points of the fiber of ``reps.fiber_basis``, which proves the relation,
    so they are not re-verified."""
    import json

    partition = _parse_partition(args.partition)
    _capped("the sum of --partition", partition.n, 1, REP_MAX_N)
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
        rep = RepPair._proved(rand_fiber_point(random.Random(args.seed), partition), y)
    else:
        rep = RepPair._proved(_particular_solution(partition), y)
    payload = rep_to_json(rep, partition)
    _output(args, payload, json.dumps(payload, indent=2))


def _cmd_rep_verify(args) -> None:
    try:
        rep = load_rep(args.file)
    except RelationViolationError as exc:
        _output(args, {"ok": False, "residual": matrix_to_json(exc.residual)["entries"]},
                "violation: XY - YX - Y^2 =", exc.residual)
        raise
    _output(args, {"ok": True, "n": rep.n}, "ok")


def _cmd_rep_eval(args) -> None:
    value = evaluate(parse_poly(args.poly), load_rep(args.file))
    _output(args, matrix_to_json(value), value)


def _cmd_image_dim(args) -> None:
    dim = image_algebra(load_rep(args.file)).dim
    _output(args, dim, dim)


def _cmd_image_relations(args) -> None:
    max_degree = _capped("--max-degree", args.max_degree, 0, RELATIONS_MAX_DEGREE)
    rep = load_rep(args.file)
    entries = rep.n ** 2 * (max_degree + 1) * (max_degree + 2) // 2
    _capped(f"n^2*(d+1)(d+2)/2 at n = {rep.n}", entries, 0, RELATIONS_MAX_ENTRIES)
    relations = [str(r) for r in discover_relations(rep, max_degree)]
    _output(args, {"relations": relations}, *relations)


def _cmd_image_quiver(args) -> None:
    data = quiver(image_algebra(load_rep(args.file)))
    _output(args, data.to_json(),
            "vertices: " + " ".join(scalar_str(v) for v in data.vertices),
            *(" ".join(str(v) for v in row) for row in data.arrows))


def _cmd_image_quotient_codim(args) -> None:
    algebra = image_algebra(load_rep(args.file))
    codim = ideal_codim(algebra, [parse_poly(g) for g in args.gens])
    _output(args, codim, codim)


def _cmd_strata_census(args) -> None:
    rows = census(_capped("--n", args.n, 1, CENSUS_MAX_N))
    _output(args, [row.to_json() for row in rows],
            *(f"partition={row.partition} fiber={row.fiber_dim} "
              f"base={row.base_dim} stratum={row.stratum_dim} "
              f"bound={row.image_dim_bound} tame={row.tame.value}" for row in rows))


def _cmd_faithful(args) -> None:
    result = faithful_witness(parse_poly(args.poly), args.max_n)
    if isinstance(result, WitnessResult):
        _output(args, {"witness": None, "result": result.value}, result.value)
    else:
        _output(args, {"witness": result, "result": "witness"}, result)


def _cmd_decompose(args) -> None:
    result = decompose(load_rep(args.file))
    payload = {
        "summands": [rep_to_json(s) for s in result.summands],
        "eigenvalues": [scalar_str(v) for v in result.eigenvalues],
        "change_of_basis": matrix_to_json(result.change_of_basis)["entries"],
    }
    _output(args, payload, f"summands: {len(result)}",
            *(f"  n={s.n} eigenvalue={scalar_str(lam)}"
              for lam, s in zip(result.eigenvalues, result.summands)))


def _cmd_orbit_jacobian_rank(args) -> None:
    rng = random.Random(_effective_seed(args))
    n = _capped("--n", args.n, 2, JACOBIAN_MAX_N)
    c_coeffs = [rand_rational(rng) for _ in range(n - 1)]
    x_coeffs = [rand_rational(rng) for _ in range(n - 1)]
    rank = jacobian_rank(n, c_coeffs, x_coeffs)
    _output(args, rank, rank)


def _cmd_canonical_extract(args) -> None:
    params = extract_params(load_rep(args.file))
    lam, mu = scalar_str(params.lam), scalar_str(params.mu)
    _output(args, {"lambda": lam, "mu": mu}, f"lambda={lam} mu={mu}")


# -- parser ------------------------------------------------------------------

GROUPS = {
    "rep": "build, verify and evaluate representations",
    "image": "image-algebra analysis",
    "strata": "stratum census",
    "orbit": "orbit-map diagnostics",
    "canonical": "canonical full-block parameters",
}

# One row per command: its path, handler, help and arguments as (flag,
# add_argument options).  A path "group name" puts the command under that
# group of GROUPS.  A command whose help is None gets no line of its own in
# its group's --help; argparse lists one for help=None, so build_parser
# leaves that keyword out.
COMMANDS = [
    ("nf", _cmd_nf, "normal form of a polynomial", [("poly", {})]),
    ("mul", _cmd_mul, "product in normal form", [("left", {}), ("right", {})]),
    ("hilbert", _cmd_hilbert, "graded dimensions",
     [("--max-degree", dict(type=int, required=True,
                            help=f"0 to {HILBERT_MAX_DEGREE}; one line per degree"))]),
    ("gb-check", _cmd_gb_check, "overlap/confluence check of the rewriting system", []),
    ("rep build", _cmd_rep_build, None,
     [("--partition", dict(required=True,
                           help=f"e.g. 5 or 3,2,1; the parts sum to 1 to {REP_MAX_N}")),
      ("--canonical", dict(help="LAMBDA,MU for the full-block normal form"))]),
    ("rep verify", _cmd_rep_verify, None, [("file", {})]),
    ("rep eval", _cmd_rep_eval, None, [("file", {}), ("poly", {})]),
    ("image dim", _cmd_image_dim, None, [("file", {})]),
    ("image relations", _cmd_image_relations, None,
     [("file", {}),
      ("--max-degree", dict(type=int, required=True,
                            help=f"0 to {RELATIONS_MAX_DEGREE}; (d+1)(d+2)/2 monomials of "
                            f"degree <= d, and n^2*(d+1)(d+2)/2 at most "
                            f"{RELATIONS_MAX_ENTRIES} for an n x n rep"))]),
    ("image quiver", _cmd_image_quiver, None, [("file", {})]),
    ("image quotient-codim", _cmd_image_quotient_codim, None,
     [("file", {}), ("--gens", dict(nargs="+", required=True))]),
    ("strata census", _cmd_strata_census, None,
     [("--n", dict(type=int, required=True,
                   help=f"1 to {CENSUS_MAX_N}; one row per partition of n"))]),
    ("faithful", _cmd_faithful, "least n with a nonzero image under epsilon_n",
     [("poly", {}), ("--max-n", dict(type=int))]),
    ("decompose", _cmd_decompose, "split on generalized eigenspaces of X", [("file", {})]),
    ("orbit jacobian-rank", _cmd_orbit_jacobian_rank, None,
     [("--n", dict(type=int, required=True,
                   help=f"2 to {JACOBIAN_MAX_N}; the rank of an (n-1) x n matrix"))]),
    ("canonical extract", _cmd_canonical_extract, None, [("file", {})]),
]


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
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for path, func, help_text, arguments in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subs:
            group_parser = subs[""].add_parser(group, help=GROUPS[group])
            subs[group] = group_parser.add_subparsers(dest=f"{group}_command", required=True)
        p = subs[group].add_parser(name, parents=[common],
                                   **({"help": help_text} if help_text else {}))
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except (JordanLabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
