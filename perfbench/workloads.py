"""The benchmark's workloads: seeded inputs, the library call of each item and
an independent check of its result.

A workload is a fixed list of items; the seed changes the inputs, never the
number or kind of items.  ``Item.call`` is the timed library call (or CLI
command).  ``Item.check`` runs untimed and raises ``CheckError`` when the
result is wrong; ``canonical_text`` gives the exact text of a result, which
feeds the output digest.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from oracle import require

import jordanlab as J
from jordanlab import sampling

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Item:
    name: str
    fixed: bool  # the input is the same for every seed
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    items: list
    inputs: list  # canonical text of every seeded input
    before_pass: Callable[[], None] = lambda: None
    cli: "CliRunner | None" = None
    scratch: "Path | None" = None

    def close(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


def text_of(m: J.QMatrix) -> str:
    return " ".join(map(str, m.entries))


def canonical_text(result) -> str:
    """Exact text of an item's result: every entry, coefficient and count."""
    if isinstance(result, J.QMatrix):
        return text_of(result)
    if isinstance(result, J.RepPair):
        return f"{text_of(result.X)} / {text_of(result.Y)}"
    if isinstance(result, J.ImageAlgebra):
        return canonical_text(list(result.basis))
    if isinstance(result, J.Decomposition):
        return canonical_text([list(result.eigenvalues), result.change_of_basis,
                               list(result.summands)])
    if isinstance(result, J.QuiverData):
        return json.dumps(result.to_json())
    if isinstance(result, J.StratumInfo):
        return json.dumps(result.to_json())
    if isinstance(result, (list, tuple)):
        return "[" + " | ".join(map(canonical_text, result)) + "]"
    return str(result)


# -- seeded inputs ------------------------------------------------------------------


def rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def rand_normal(rng: random.Random, max_degree: int, max_terms: int, min_terms: int = 1) -> dict:
    """Random nonzero element of R on the normal basis."""
    while True:
        f: dict = {}
        for _ in range(rng.randint(min_terms, max_terms)):
            d = rng.randint(0, max_degree)
            k = rng.randint(0, d)
            f[(k, d - k)] = f.get((k, d - k), 0) + rand_q(rng)
        f = {km: c for km, c in f.items() if c}
        if f:
            return f


def rand_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("xy") for _ in range(length))


def rand_unimodular(rng: random.Random, n: int) -> "tuple[list, list]":
    """L U with unit triangular L, U whose other entries lie in [-2, 2]."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(n)]
             for i in range(n)]
    c = oracle.matmul(lower, upper)
    return c, oracle.inverse(c)


def assembly(rng: random.Random, sizes, lams) -> "tuple[list, list]":
    """Conjugate of the direct sum of (x_zero(k) + lam*I, J_k) blocks."""
    x = oracle.block_diag([oracle.add(oracle.x_zero(k), oracle.scale(oracle.identity(k), lam))
                           for k, lam in zip(sizes, lams)])
    y = oracle.block_diag([oracle.jordan_block(k) for k in sizes])
    c, c_inv = rand_unimodular(rng, len(x))
    return (oracle.matmul(oracle.matmul(c, x), c_inv),
            oracle.matmul(oracle.matmul(c, y), c_inv))


# Block sizes of the conjugated assemblies.  The seed draws the eigenvalues
# and the conjugator, never the sizes, so the work per item hardly depends
# on the seed.
ASSEMBLY_SIZES = ((1, 2), (2, 2), (3, 1), (2, 1, 1), (3, 2), (2, 2, 1),
                  (4, 1), (3, 3), (4, 2), (2, 2, 2), (4, 3), (3, 2, 2))


# -- checks ---------------------------------------------------------------------------


def check_pair(x: list, y: list) -> None:
    require(oracle.relation_holds(x, y), "XY - YX != Y^2")
    require(oracle.is_nilpotent(y), "Y is not nilpotent")


def check_normal(expected: Callable[[], dict]):
    def check(result: J.NormalPoly) -> None:
        got = {km: Fraction(c) for km, c in result.items()}
        require(got == expected(), "normal form differs from the Ore closed form")
    return check


def check_equal(expected):
    def check(result) -> None:
        require(result == expected, f"got {result!r}, expected {expected!r}")
    return check


def check_witness(f: dict, evaluator: oracle.EpsilonEvaluator):
    """Direct evaluation: f is nonzero at the returned n and zero below it."""
    degree = max(k + m for k, m in f)

    def check(result) -> None:
        if isinstance(result, J.WitnessResult):
            require(result is J.WitnessResult.NOT_FOUND_BELOW_MAX, f"{result}")
            top = max(1, 2 * degree)
        else:
            require(not evaluator.vanishes(f, result), f"f vanishes at epsilon_{result}")
            top = result - 1
        for n in range(1, top + 1):
            require(evaluator.vanishes(f, n), f"f does not vanish at epsilon_{n}")
    return check


# -- closure -----------------------------------------------------------------------------

# The n = 8 reps are the heaviest items, and the tail percentile (10 items
# beyond it) falls among them; twice as many of them make it and
# items_per_s depend less on which reps the seed draws.
CLOSURE_REPS = {n: 50 if n == 8 else 25 for n in range(1, 9)}


def _closure_item(n: int, item_seed: int):
    rep = sampling.rand_rep(random.Random(item_seed), n)
    return rep, J.image_algebra(rep).dim


def _check_closure(n: int):
    def check(result) -> None:
        rep, dim = result
        require(rep.n == n, "rand_rep returned the wrong size")
        x, y = rep.X.to_rows(), rep.Y.to_rows()
        check_pair(x, y)
        require(dim <= oracle.epsilon_dim(n), f"image dimension {dim} above the bound")
        require(dim == oracle.algebra_dim(x, y), f"image dimension {dim} is not exact")
    return check


def build_closure(seed: int) -> Workload:
    # rand_rep looks up the fiber of every partition; this workload keeps that
    # cache warm, as a long-running process would.
    for n in range(1, 9):
        for p in J.partitions(n):
            J.fiber_basis(p)
    items = []
    for n in range(1, 13):
        rep = J.epsilon_rep(n)
        items.append(Item(f"epsilon{n}", True, lambda rep=rep: J.image_algebra(rep).dim,
                          check_equal(oracle.epsilon_dim(n))))
    rng = random.Random(f"closure/{seed}")
    inputs = []
    for n in range(1, 9):
        for i in range(CLOSURE_REPS[n]):
            s = rng.getrandbits(64)
            inputs.append(f"{n}:{s}")
            items.append(Item(f"rand{n}.{i}", False,
                              lambda n=n, s=s: _closure_item(n, s), _check_closure(n)))
    return Workload(items, inputs)


# -- structure ---------------------------------------------------------------------------

QUIVER_SIZES = ((4, 3), (3, 3, 2), (4, 4))
EPSILON_QUIVER = (6, 8, 10)
CODIM_GENS = ("y^2", "x^2*y", "x^3", "x*y - y*x")


def _check_census(n: int):
    def check(rows) -> None:
        require(len(rows) == oracle.partition_count(n), f"census({n}) row count")
        for row in rows:
            parts = row.partition.parts
            require(sum(parts) == n, "census partition of the wrong size")
            require(row.fiber_dim == oracle.fiber_dim(parts), f"fiber dim of {parts}")
            require(row.base_dim == n * n - row.fiber_dim, "base dim")
            require(row.stratum_dim == n * n, "stratum dim")
            require(row.image_dim_bound == oracle.epsilon_dim(n), "image bound")
    return check


def _check_decompose(x: list, y: list, sizes, lams):
    """The exact change-of-basis identity X C = C diag(X_i), Y C = C diag(Y_i)."""
    by_lam = dict(zip(lams, sizes))

    def check(d) -> None:
        require(list(d.eigenvalues) == sorted(lams), "eigenvalues")
        require(len(d) == len(lams), "summand count")
        cb = d.change_of_basis.to_rows()
        oracle.inverse(cb)  # raises when singular
        bx = oracle.block_diag([s.X.to_rows() for s in d])
        by = oracle.block_diag([s.Y.to_rows() for s in d])
        require(oracle.matmul(x, cb) == oracle.matmul(cb, bx), "C^-1 X C is not block diagonal")
        require(oracle.matmul(y, cb) == oracle.matmul(cb, by), "C^-1 Y C is not block diagonal")
        for lam, s in zip(d.eigenvalues, d):
            sx, sy = s.X.to_rows(), s.Y.to_rows()
            require(len(sx) == by_lam[lam], "summand size")
            check_pair(sx, sy)
            shifted = oracle.add(sx, oracle.scale(oracle.identity(len(sx)), -lam))
            require(oracle.is_nilpotent(shifted), "summand has a second eigenvalue")
    return check


def _algebra_checks(sizes, lams, n: int):
    """Checks for image_algebra, radical_basis, idempotents and quiver of a
    conjugated sum of (x_zero(k) + lam*I, J_k) blocks with distinct lam.  The
    spectral projections lie in the algebra, so it is the direct sum of the
    blocks' algebras, each that of epsilon_k."""
    dim = sum(oracle.epsilon_dim(k) for k in sizes)
    order = sorted(range(len(lams)), key=lambda i: lams[i])

    def algebra(a) -> None:
        require(a.dim == dim == len(a.basis), f"image dimension {a.dim}, expected {dim}")

    def radical(basis) -> None:
        require(len(basis) == dim - len(lams), "radical dimension")
        for b in basis:
            require(oracle.is_nilpotent(b.to_rows()), "radical element is not nilpotent")

    def idempotents(es) -> None:
        require(len(es) == len(lams), "idempotent count")
        rows = [e.to_rows() for e in es]
        total = oracle.zeros(n)
        for i, ei in enumerate(rows):
            total = oracle.add(total, ei)
            for j, ej in enumerate(rows):
                require(oracle.matmul(ei, ej) == (ei if i == j else oracle.zeros(n)),
                        "idempotents are not orthogonal idempotents")
        require(total == oracle.identity(n), "idempotents do not sum to 1")

    def quiver(q) -> None:
        require(list(q.vertices) == sorted(lams), "quiver vertices")
        loops = [oracle.epsilon_loops(sizes[i]) for i in order]
        want = [[loops[i] if i == j else 0 for j in range(len(lams))]
                for i in range(len(lams))]
        require([list(r) for r in q.arrows] == want, f"quiver arrows {q.arrows}")

    return algebra, radical, idempotents, quiver


def build_structure(seed: int) -> Workload:
    rng = random.Random(f"structure/{seed}")
    inputs = []
    items = [Item(f"census{n}", True, lambda n=n: J.census(n), _check_census(n))
             for n in range(1, 11)]
    for n in range(3, 11):
        for i in range(3):
            c = [rand_q(rng) for _ in range(n - 1)]
            x = [rand_q(rng) for _ in range(n - 1)]
            inputs.append(f"jacobian {n} {c} {x}")
            items.append(Item(f"jacobian{n}.{i}", False,
                              lambda n=n, c=c, x=x: J.jacobian_rank(n, c, x),
                              check_equal(n - 2)))
    for i, sizes in enumerate(ASSEMBLY_SIZES):
        lams = rng.sample(range(-6, 7), len(sizes))
        x, y = assembly(rng, sizes, lams)
        inputs.append(f"decompose {sizes} {lams} {x}")
        rep = J.RepPair(J.QMatrix.from_rows(x), J.QMatrix.from_rows(y))
        items.append(Item(f"decompose{i}", False, lambda rep=rep: J.decompose(rep),
                          _check_decompose(x, y, sizes, lams)))
    cases = [(f"epsilon{n}", True, J.epsilon_rep(n), (n,), (0,)) for n in EPSILON_QUIVER]
    # These are the heaviest items, and their cost follows the eigenvalues and
    # the entries of the conjugator, so their inputs do not depend on the seed.
    fixed_rng = random.Random("structure/assemblies")
    for i, sizes in enumerate(QUIVER_SIZES):
        lams = fixed_rng.sample(range(-6, 7), len(sizes))
        x, y = assembly(fixed_rng, sizes, lams)
        rep = J.RepPair(J.QMatrix.from_rows(x), J.QMatrix.from_rows(y))
        cases.append((f"assembly{i}", True, rep, sizes, lams))
    for label, fixed, rep, sizes, lams in cases:
        a = J.image_algebra(rep)
        algebra, radical, idempotents, quiver = _algebra_checks(sizes, lams, rep.n)
        items += [
            Item(f"image_algebra.{label}", fixed, lambda rep=rep: J.image_algebra(rep), algebra),
            Item(f"radical_basis.{label}", fixed, lambda a=a: J.radical_basis(a), radical),
            Item(f"idempotents.{label}", fixed, lambda a=a: J.idempotents(a), idempotents),
            Item(f"quiver.{label}", fixed, lambda a=a: J.quiver(a), quiver),
        ]
    gens = [J.parse_poly(g) for g in CODIM_GENS]
    for n in range(5, 9):
        a = J.image_algebra(J.epsilon_rep(n))
        items.append(Item(f"ideal_codim{n}", True, lambda a=a: J.ideal_codim(a, gens),
                          check_equal(5)))
    # Every CLI census pays the cold fiber solve, so each pass does too.
    return Workload(items, inputs, before_pass=J.fiber_basis.cache_clear)


# -- normal_forms ------------------------------------------------------------------------

NF_MAX_X = 14
NF_POWERS = [(a, b) for a in range(1, NF_MAX_X + 1) for b in (1, 2)]
# Ten words y^k x^11 y^2 x^j that cost about as much as x^11*y^2 (about
# 31 ms on a 2-vCPU Xeon VM; no seeded item takes more than about 16 ms).
# Six x^a*y^b are heavier, so the tail percentile, which leaves 10 items
# beyond it, falls in the middle of these eleven near-equal items.  That
# makes it an order statistic of many samples, not the noisy latency of
# one item; the words are spread over the pass so that their samples are
# not taken at the same moment.
NF_TAIL_WORDS = ["y" * k + "x" * 11 + "yy" + "x" * j
                 for k, j in ((0, 1), (1, 0), (1, 1), (2, 0), (0, 2),
                              (2, 1), (1, 2), (2, 2), (3, 0), (0, 3))]


def build_normal_forms(seed: int) -> Workload:
    items = []
    for a, b in NF_POWERS:
        poly = J.NcPoly.monomial("x" * a + "y" * b)
        items.append(Item(f"nf.x{a}y{b}", True, lambda p=poly: J.normal_form(p),
                          check_normal(lambda a=a, b=b: oracle.x_power_times_y_power(a, b))))
    rng = random.Random(f"normal_forms/{seed}")
    inputs = []
    for i in range(40):
        word = rand_word(rng, 11)
        inputs.append(word)
        poly = J.NcPoly.monomial(word)
        items.append(Item(f"nf.word{i}", False, lambda p=poly: J.normal_form(p),
                          check_normal(lambda word=word: oracle.word_normal_form(word))))
    tail_words = iter(NF_TAIL_WORDS)
    # A fixed term count keeps the cost of each product nearly seed-independent.
    for i in range(200):
        f, g = rand_normal(rng, 40, 12, 12), rand_normal(rng, 40, 12, 12)
        inputs.append(f"{f} * {g}")
        nf, ng = J.NormalPoly(f), J.NormalPoly(g)
        items.append(Item(f"multiply{i}", False, lambda nf=nf, ng=ng: J.multiply(nf, ng),
                          check_normal(lambda f=f, g=g: oracle.product(f, g))))
        if i % 20 == 19:
            word = next(tail_words)
            poly = J.NcPoly.monomial(word)
            items.append(Item(f"nf.{word}", True, lambda p=poly: J.normal_form(p),
                              check_normal(lambda word=word: oracle.word_normal_form(word))))
    for i in range(40):
        alpha = rand_q(rng) or Fraction(1)
        p = [rand_q(rng) for _ in range(rng.randint(0, 3))]
        word = rand_word(rng, rng.randint(1, 5))
        inputs.append(f"automorphism {alpha} {p} {word}")
        phi = J.JordanAutomorphism(alpha, J.UniPoly(p))
        poly = J.NcPoly.monomial(word)
        items.append(Item(
            f"automorphism{i}", False,
            lambda phi=phi, poly=poly: J.apply_automorphism(phi, poly),
            check_normal(lambda alpha=alpha, p=p, word=word:
                         oracle.automorphism_image(alpha, p, word))))
    evaluator = oracle.EpsilonEvaluator()
    for i in range(40):
        f = rand_normal(rng, 6, 4)
        inputs.append(f"faithful {f}")
        poly = J.NormalPoly(f).embed()
        items.append(Item(f"faithful{i}", False, lambda poly=poly: J.faithful_witness(poly),
                          check_witness(f, evaluator)))
    return Workload(items, inputs)


# -- cli_cold ------------------------------------------------------------------------------


class CliRunner:
    """Runs one CLI command in a fresh interpreter.  With a tracer attached the
    command runs under perfbench/traced_cli.py and its spans are merged in."""

    def __init__(self, scratch: Path):
        self.env = {k: v for k, v in os.environ.items() if k != "JORDAN_LAB_SEED"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.stats = scratch / "spans.json"
        self.tracer = None

    def __call__(self, args) -> "tuple[int, str]":
        if self.tracer is None:
            cmd = [sys.executable, "-m", "jordanlab.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(self.stats), *args]
        done = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True)
        if self.tracer is not None and done.returncode == 0:
            self.tracer.merge(json.loads(self.stats.read_text()))
        return done.returncode, done.stdout


def _cli_check(parse):
    def check(result) -> None:
        code, out = result
        require(code == 0, f"exit code {code}")
        parse(out)
    return check


def _printed_normal(expected: Callable[[], dict]):
    def parse(out: str) -> None:
        require(oracle.parse_normal_text(out) == expected(), f"printed {out.strip()!r}")
    return parse


def _printed(expected: str):
    def parse(out: str) -> None:
        require(out == expected, f"printed {out!r}, expected {expected!r}")
    return parse


def _printed_census(n: int):
    def parse(out: str) -> None:
        lines = out.splitlines()
        require(len(lines) == oracle.partition_count(n), "census line count")
        for line in lines:
            fields = dict(f.split("=") for f in line.split())
            parts = [int(p) for p in fields["partition"].split(",")]
            fiber = oracle.fiber_dim(parts)
            require(sum(parts) == n, "partition size")
            require(int(fields["fiber"]) == fiber, f"fiber dim in {line!r}")
            require(int(fields["base"]) == n * n - fiber, f"base dim in {line!r}")
            require(int(fields["stratum"]) == n * n, f"stratum dim in {line!r}")
            require(int(fields["bound"]) == oracle.epsilon_dim(n), f"bound in {line!r}")
    return parse


def _printed_rep(parts):
    y_want = oracle.block_diag([oracle.jordan_block(k) for k in parts])

    def parse(out: str) -> None:
        data = json.loads(out)
        x = [[Fraction(v) for v in row] for row in data["X"]]
        y = [[Fraction(v) for v in row] for row in data["Y"]]
        require(data["n"] == sum(parts) and data["partition"] == list(parts), "rep header")
        require(y == y_want, "Y is not the Jordan matrix of the partition")
        check_pair(x, y)
    return parse


def _printed_witness(f: dict, evaluator: oracle.EpsilonEvaluator):
    check = check_witness(f, evaluator)

    def parse(out: str) -> None:
        text = out.strip()
        check(int(text) if text.isdigit() else J.WitnessResult(text))
    return parse


def build_cli_cold(seed: int) -> Workload:
    scratch_root = ROOT / ".bench_build"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch_root))
    run = CliRunner(scratch)
    items = []

    def add(name, fixed, args, parse):
        items.append(Item(name, fixed, lambda: run(args), _cli_check(parse)))

    add("nf.x12y", True, ["nf", "x^12*y"],
        _printed_normal(lambda: oracle.x_power_times_y_power(12, 1)))
    add("nf.x10y2", True, ["nf", "x^10*y^2"],
        _printed_normal(lambda: oracle.x_power_times_y_power(10, 2)))
    add("mul.x40.y40", True, ["mul", "x^40", "y^40"],
        _printed_normal(lambda: oracle.x_power_times_y_power(40, 40)))
    add("census10", True, ["strata", "census", "--n", "10"], _printed_census(10))
    rng = random.Random(f"cli_cold/{seed}")
    inputs = []
    for i in range(4):
        word = rand_word(rng, 10)
        inputs.append(word)
        add(f"nf.word{i}", False, ["nf", "*".join(word)],
            _printed_normal(lambda word=word: oracle.word_normal_form(word)))
    for i in range(3):
        f, g = rand_normal(rng, 8, 4), rand_normal(rng, 8, 4)
        inputs.append(f"{f} * {g}")
        add(f"mul{i}", False, ["mul", "--", oracle.poly_text(f), oracle.poly_text(g)],
            _printed_normal(lambda f=f, g=g: oracle.product(f, g)))
    for i, parts in enumerate(((5, 2), (4, 3, 1), (6, 2))):
        s = rng.getrandbits(32)
        inputs.append(f"build {parts} {s}")
        add(f"rep_build{i}", False,
            ["rep", "build", "--partition", ",".join(map(str, parts)), "--seed", str(s)],
            _printed_rep(parts))
    for i, sizes in enumerate(((3, 2), (4, 2, 1), (4, 4))):
        lams = rng.sample(range(-6, 7), len(sizes))
        x, y = assembly(rng, sizes, lams)
        path = scratch / f"rep{i}.json"
        path.write_text(json.dumps({"n": len(x), "X": [[str(v) for v in r] for r in x],
                                    "Y": [[str(v) for v in r] for r in y]}))
        inputs.append(f"rep file {sizes} {lams} {x}")
        add(f"rep_verify{i}", False, ["rep", "verify", str(path)], _printed("ok\n"))
        dim = sum(oracle.epsilon_dim(k) for k in sizes)
        add(f"image_dim{i}", False, ["image", "dim", str(path)], _printed(f"{dim}\n"))
    for i, n in enumerate((8, 10)):
        s = rng.getrandbits(32)
        inputs.append(f"jacobian {n} {s}")
        add(f"jacobian{i}", False, ["orbit", "jacobian-rank", "--n", str(n), "--seed", str(s)],
            _printed(f"{n - 2}\n"))
    evaluator = oracle.EpsilonEvaluator()
    for i in range(2):
        f = rand_normal(rng, 6, 4)
        inputs.append(f"faithful {f}")
        add(f"faithful{i}", False, ["faithful", "--", oracle.poly_text(f)],
            _printed_witness(f, evaluator))
    return Workload(items, inputs, cli=run, scratch=scratch)


BUILDERS = {
    "closure": build_closure,
    "structure": build_structure,
    "normal_forms": build_normal_forms,
    "cli_cold": build_cli_cold,
}
