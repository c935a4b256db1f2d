"""Batch driver: run computations over algebra spec files and emit
deterministic JSON reports.

Exit codes: 0 success, 1 failed invariant, 2 input validation failure,
3 truncation exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .algebras import STANDARD_ALGEBRAS, AlgebraError, FinAlgebra, GradedTarget, check_algebra
from .families import FamilyError, derivation_lifts, from_derivations, surjectivity_probe, validate_aut
from .graphs import GraphError, NotPlanar, PlanarGraph
from .linalg import Matrix
from .operators import (
    DiffOperator,
    OperatorError,
    check_leibniz,
    check_mP,
    compose_D,
    dim_D,
    h_compose,
    solve_D,
    solve_Dn,
    symbol_exactness,
    unit_operator,
    v_compose,
)
from .props import (
    EndProp,
    Gen,
    HComp,
    PropError,
    Unit,
    VComp,
    arity,
    braid_check,
    eval_expr,
    eval_nf,
    normalize,
    parse_expr,
    print_expr,
)


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections (an unknown flag or command, a
    bad value, a missing argument) raise CliError: exit 2 with one
    `error:` line, like every other invalid input."""

    def error(self, message):
        raise CliError(message)


def _load_json(path: str, what: str, build):
    """build(obj) for the JSON value obj held in the file at path.  A file
    that cannot be read or parsed, a value build rejects, a missing key
    and nesting too deep to read all raise CliError("cannot load what: ...")."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except KeyError as e:
        raise CliError(f"cannot load {what}: missing key {e.args[0]!r}")
    except RecursionError:
        raise CliError(f"cannot load {what}: nested too deeply")
    except (OSError, ValueError) as e:
        raise CliError(f"cannot load {what}: {e}")


def _read_algebra(spec: str) -> tuple[FinAlgebra, str]:
    """The algebra a spec names, not yet checked, and its digest."""
    if spec in STANDARD_ALGEBRAS:
        A = STANDARD_ALGEBRAS[spec]()
    else:
        A = _load_json(spec, f"algebra spec {spec!r}", FinAlgebra.from_json)
    digest = hashlib.sha256(
        json.dumps(A.to_json(), sort_keys=True).encode()
    ).hexdigest()[:16]
    return A, digest


def _shape(args) -> tuple[int, ...]:
    """The shape a command names by exactly one of --order n, read as
    (n,), and --shape, comma-separated integers."""
    if (args.order is None) == (args.shape is None):
        raise CliError(f"{args.command} takes exactly one of --order and --shape")
    if args.shape is None:
        return (args.order,)
    try:
        shape = tuple(int(x) for x in args.shape.split(","))
    except ValueError:
        raise CliError(f"shape must be comma-separated integers, got {args.shape!r}")
    if any(x < 0 for x in shape):
        raise CliError("shape parts must be non-negative")
    return shape


def _emit(report: dict, args) -> None:
    """Stream the report as indented JSON to the --out file or stdout."""
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as e:
        raise CliError(f"cannot write report: {e}")


# Each command takes the parsed arguments and the checked algebra (None for
# a command without --algebra, unchecked for verify) and returns its own
# report fields and its exit code, 0 or 1; `main` alone writes the report.


def cmd_dims(args, A) -> tuple[dict, int]:
    shape = _shape(args)
    dim = dim_D(GradedTarget(A), shape, args.grade)
    return {"dims": [{"shape": list(shape), "grade": args.grade, "dim": dim}]}, 0


def cmd_solve(args, A) -> tuple[dict, int]:
    shape = _shape(args)
    basis = solve_D(GradedTarget(A), shape, args.grade)
    return {
        "shape": list(shape),
        "grade": args.grade,
        "dim": len(basis),
        "basis": [P.to_json() for P in basis],
    }, 0


def cmd_compose(args, A) -> tuple[dict, int]:
    load = functools.partial(DiffOperator.from_json, GradedTarget(A))
    P, Q = (_load_json(path, "operator", load) for path in (args.left, args.right))
    try:
        if args.mode == "h":
            out = h_compose(P, Q)
        elif args.mode == "v":
            out = v_compose(P, Q)
        else:
            out = compose_D(P, Q)
    except OperatorError as e:
        raise CliError(f"cannot compose: {e}")
    return {"mode": args.mode, "result": out.to_json(), "leibniz": check_leibniz(out)}, 0


def cmd_symbol(args, A) -> tuple[dict, int]:
    if args.order is None or args.order < 1:
        raise CliError("symbol requires --order of at least 1")
    return {"order": args.order, **symbol_exactness(GradedTarget(A), args.order, args.grade)}, 0


def cmd_normalize(args, A) -> tuple[dict, int]:
    try:
        expr = parse_expr(args.expr)
        nf = normalize(expr)
        fields = {"input": print_expr(expr), "normal_form": str(nf)}
    except PropError as e:
        raise CliError(f"cannot normalize: {e}")
    except RecursionError:
        raise CliError("cannot normalize: expression nested too deeply")
    fields["layers"] = [
        {"left": i, "name": g.name, "outputs": g.n_out, "inputs": g.n_in, "right": j}
        for (i, g, j) in nf.layers
    ]
    return fields, 0


def cmd_graph(args, A) -> tuple[dict, int]:
    G = _load_json(args.file, "graph", PlanarGraph.from_json)
    try:
        G.validate()
    except GraphError as e:
        raise CliError(f"cannot load graph: {e}")
    try:
        order, layers, frontiers = G.level_embed(backtrack=args.backtrack_planarity)
    except NotPlanar as e:
        trace = [[list(h) for h in fr] for fr in getattr(e, "frontiers", [])]
        return {"planar": False, "diagnostic": str(e), "frontier_trace": trace}, 1
    except GraphError as e:
        raise CliError(f"cannot embed graph: {e}")
    return {
        "planar": True,
        "order": order,
        "genus": G.genus(),
        "layers": [{"left": i, "vertex": v, "right": j} for (i, v, j) in layers],
    }, 0


def cmd_aut_build(args, A) -> tuple[dict, int]:
    if args.order < 1:
        raise CliError("aut-build requires --order of at least 1")
    if args.order > 3:
        raise CliError("truncation length above 3 not supported", code=3)
    B = GradedTarget(A)
    lifts = derivation_lifts(B)[2]
    if lifts is None:
        return {"lift_feasible": False}, 1
    phi = from_derivations(B, lifts, N=args.order)
    ok, where = validate_aut(phi)
    fields = {"letters": len(lifts), "valid": ok, "family": phi.to_json()}
    if not ok:
        w, i, j = where
        fields["counterexample"] = {"word": list(w), "i": i, "j": j}
    return fields, 0 if ok else 1


def cmd_aut_probe(args, A) -> tuple[dict, int]:
    if not args.order or args.order > 2:
        raise CliError("probe requires --order 1 or 2", code=3 if args.order else 2)
    res = surjectivity_probe(A, args.order)
    return res, 0 if res.get("spanned") else 1


def cmd_verify(args, A) -> tuple[dict, int]:
    results = []
    for name, ok, detail in _invariants(A, random.Random(args.seed)):
        entry = {"invariant": name, "pass": bool(ok)}
        if detail is not None and not ok:
            entry["counterexample"] = detail
        results.append(entry)
    all_pass = all(r["pass"] for r in results)
    return {"results": results, "all_pass": all_pass}, 0 if all_pass else 1


def _invariants(A: FinAlgebra, rng):
    """(name, holds, counterexample or None) of each invariant suite run
    on an algebra that has not been checked yet."""
    try:
        check_algebra(A)
    except AlgebraError as e:
        # the other invariants presuppose an associative unital algebra
        yield "algebra_associative_unital", False, str(e)
        return
    yield "algebra_associative_unital", True, None

    B = GradedTarget(A)
    basis1 = solve_Dn(B, 1, 0)
    yield "derivations_satisfy_leibniz", all(check_leibniz(P) for P in basis1), None
    max_n = 2 if A.dim > 2 else 3
    bases = {n: solve_Dn(B, n, 0) for n in range(2, max_n + 1)}
    for n, basis in bases.items():
        yield f"order_{n}_leibniz", all(check_leibniz(P) for P in basis), None
        yield f"order_{n}_collapse", all(check_mP(P, 2) for P in basis), None
    pool = basis1 + bases[2]
    ok_c = True
    for _ in range(10):
        if len(pool) < 1:
            break
        a = rng.choice(pool)
        b = rng.choice(pool)
        qa, qb = len(a.shape), len(b.shape)
        lhs = v_compose(h_compose(a, unit_operator(B, qb)), h_compose(unit_operator(B, qa), b))
        if lhs != h_compose(a, b):
            ok_c = False
    yield "compatibility_relation", ok_c, None

    swap = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    yield "braid_swap", braid_check(swap, 2), None

    P = EndProp(2)
    exprs_ok = True
    for _ in range(20):
        expr = _random_expr(rng, depth=2)
        try:
            nf = normalize(expr)
        except PropError:
            continue
        labels = {}
        for _, g, _ in nf.layers:
            if g.name not in labels:
                mat = Matrix(
                    [
                        [Fraction(rng.randint(-2, 2)) for _ in range(P.dim**g.n_in)]
                        for _ in range(P.dim**g.n_out)
                    ]
                )
                labels[g.name] = P.element(g.n_out, g.n_in, mat)
        lhs = eval_expr(expr, P, labels)
        rhs = eval_nf(nf, P, labels)
        if not P.equal(lhs, rhs):
            exprs_ok = False
    yield "normal_form_soundness", exprs_ok, None


def _random_expr(rng, depth: int):
    def atom():
        r = rng.random()
        if r < 0.2:
            return Unit()
        m = rng.randint(1, 2)
        n = rng.randint(1, 2)
        return Gen(f"a{rng.randint(1, 4)}_{m}{n}", m, n)

    def build(d):
        if d == 0:
            return atom()
        left = build(d - 1)
        right = build(d - 1)
        lm, ln = arity(left)
        rm, rn = arity(right)
        if rng.random() >= 0.5 and ln == rm:
            return VComp(left, right)
        # keep the wire count small: dense exact matrices grow as dim^m
        if lm + rm <= 3 and ln + rn <= 3:
            return HComp(left, right)
        return left

    return build(depth)


@functools.cache
def _parser() -> _Parser:
    """The argument parser of every command, built once per process."""
    parser = _Parser(
        prog="planarprop",
        description="exact computations in the prop of multi-differential operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--algebra": dict(default="dualnum", help="spec file or one of dualnum, k2, m2"),
        "--order": dict(type=int),
        "--shape": dict(help="comma-separated slot orders, such as 1,0,2"),
        "--grade": dict(type=int, default=0),
    }

    def command(name, func, help, *flags):
        """A subcommand taking --seed, --out and exactly the given flags."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
        p.add_argument("--out", help="write the JSON report to this path")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)
        return p

    command("dims", cmd_dims, "dimensions of operator spaces", "--algebra", "--order", "--shape", "--grade")
    command("solve", cmd_solve, "basis of an operator space", "--algebra", "--order", "--shape", "--grade")
    p = command("compose", cmd_compose, "compose two operators from JSON files", "--algebra")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=["h", "v", "d"], default="d")
    command("symbol", cmd_symbol, "symbol exactness report at an order", "--algebra", "--order", "--grade")
    command("verify", cmd_verify, "run the invariant suites", "--algebra")
    command("normalize", cmd_normalize, "normal form of a prop expression").add_argument("expr")
    p = command("graph", cmd_graph, "level embedding and genus of a graph file")
    p.add_argument("file")
    p.add_argument("--backtrack-planarity", action="store_true")
    p = command("aut-build", cmd_aut_build, "build an automorphism family from lifted derivations", "--algebra")
    p.add_argument("--order", type=int, default=3, help="truncation length, 1 to 3")
    command("aut-probe", cmd_aut_probe, "symbol surjectivity probe", "--algebra", "--order")
    return parser


def main(argv=None) -> int:
    """Run one command and write its report, headed by the version, the
    seed and the algebra's digest, on exit 0 and 1; on exit 2 and 3 write
    one `error:` line and no report."""
    try:
        args = _parser().parse_args(argv)
        for flag in ("order", "grade"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise CliError(f"--{flag} must be non-negative, got {value}")
        report = {"version": __version__, "seed": args.seed}
        A = None
        if "algebra" in args:
            A, report["algebra_hash"] = _read_algebra(args.algebra)
            if args.command != "verify":  # verify reports the check as one of its results
                try:
                    check_algebra(A)
                except AlgebraError as e:
                    raise CliError(f"algebra spec {args.algebra!r} is invalid: {e}")
        fields, code = args.func(args, A)
        report.update(fields)
        _emit(report, args)
        return code
    except (CliError, FamilyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return e.code if isinstance(e, CliError) else 2


if __name__ == "__main__":
    sys.exit(main())
