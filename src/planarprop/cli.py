"""Batch driver: run computations over algebra spec files and emit
deterministic JSON reports.

Exit codes: 0 success, 1 failed invariant, 2 input validation failure,
3 truncation exceeded.
"""

from __future__ import annotations

import argparse
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
    h_compose,
    is_totally_positive,
    solve_D,
    solve_Dn,
    symbol,
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


def _read_algebra(spec: str) -> tuple[FinAlgebra, str]:
    """The algebra a spec names, not yet checked, and its digest."""
    if spec in STANDARD_ALGEBRAS:
        A = STANDARD_ALGEBRAS[spec]()
    else:
        try:
            with open(spec) as fh:
                A = FinAlgebra.from_json(json.load(fh))
        except (OSError, KeyError, ValueError) as e:
            raise CliError(f"cannot load algebra spec {spec!r}: {e}")
    digest = hashlib.sha256(
        json.dumps(A.to_json(), sort_keys=True).encode()
    ).hexdigest()[:16]
    return A, digest


def _load_algebra(spec: str) -> tuple[FinAlgebra, str]:
    """The algebra a spec names and its digest, checked once."""
    A, digest = _read_algebra(spec)
    try:
        check_algebra(A)
    except AlgebraError as e:
        raise CliError(f"algebra spec {spec!r} is invalid: {e}")
    return A, digest


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise CliError(f"shape must be comma-separated integers, got {text!r}")
    if any(x < 0 for x in shape):
        raise CliError("shape parts must be non-negative")
    return shape


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(args, algebra_hash: str | None = None) -> dict:
    h = {"version": __version__, "seed": args.seed}
    if algebra_hash is not None:
        h["algebra_hash"] = algebra_hash
    return h


def cmd_dims(args) -> int:
    A, digest = _load_algebra(args.algebra)
    B = GradedTarget(A)
    shapes = []
    if args.shape:
        shapes.append(_parse_shape(args.shape))
    if args.order is not None:
        shapes.append((args.order,))
    if not shapes:
        raise CliError("dims requires --order or --shape")
    table = []
    for shape in shapes:
        basis = solve_D(B, shape, args.grade)
        table.append({"shape": list(shape), "grade": args.grade, "dim": len(basis)})
    report = _header(args, digest)
    report["dims"] = table
    _emit(report, args)
    return 0


def cmd_solve(args) -> int:
    A, digest = _load_algebra(args.algebra)
    B = GradedTarget(A)
    if args.shape:
        shape = _parse_shape(args.shape)
    elif args.order is not None:
        shape = (args.order,)
    else:
        raise CliError("solve requires --order or --shape")
    basis = solve_D(B, shape, args.grade)
    report = _header(args, digest)
    report["shape"] = list(shape)
    report["grade"] = args.grade
    report["dim"] = len(basis)
    report["basis"] = [P.to_json() for P in basis]
    _emit(report, args)
    return 0


def cmd_compose(args) -> int:
    A, digest = _load_algebra(args.algebra)
    B = GradedTarget(A)
    try:
        with open(args.left) as fh:
            P = DiffOperator.from_json(B, json.load(fh))
        with open(args.right) as fh:
            Q = DiffOperator.from_json(B, json.load(fh))
    except (OSError, KeyError, ValueError) as e:
        raise CliError(f"cannot load operator: {e}")
    try:
        if args.mode == "h":
            out = h_compose(P, Q)
        elif args.mode == "v":
            out = v_compose(P, Q)
        else:
            out = compose_D(P, Q)
    except OperatorError as e:
        raise CliError(f"cannot compose: {e}")
    report = _header(args, digest)
    report["mode"] = args.mode
    report["result"] = out.to_json()
    report["leibniz"] = check_leibniz(out)
    _emit(report, args)
    return 0


def cmd_symbol(args) -> int:
    A, digest = _load_algebra(args.algebra)
    B = GradedTarget(A)
    if args.order is None or args.order < 1:
        raise CliError("symbol requires --order of at least 1")
    res = symbol_exactness(B, args.order, args.grade)
    report = _header(args, digest)
    report["order"] = args.order
    report.update(res)
    _emit(report, args)
    return 0


def cmd_normalize(args) -> int:
    try:
        expr = parse_expr(args.expr)
        nf = normalize(expr)
    except PropError as e:
        raise CliError(f"cannot normalize: {e}")
    report = _header(args)
    report["input"] = print_expr(expr)
    report["normal_form"] = str(nf)
    report["layers"] = [
        {"left": i, "name": g.name, "outputs": g.n_out, "inputs": g.n_in, "right": j}
        for (i, g, j) in nf.layers
    ]
    _emit(report, args)
    return 0


def cmd_graph(args) -> int:
    try:
        with open(args.file) as fh:
            G = PlanarGraph.from_json(json.load(fh))
        G.validate()
    except (OSError, KeyError, ValueError, GraphError) as e:
        raise CliError(f"cannot load graph: {e}")
    report = _header(args)
    try:
        order, layers, frontiers = G.level_embed(backtrack=args.backtrack_planarity)
    except NotPlanar as e:
        report["planar"] = False
        report["diagnostic"] = str(e)
        report["frontier_trace"] = [
            [list(h) for h in fr] for fr in getattr(e, "frontiers", [])
        ]
        _emit(report, args)
        return 1
    report["planar"] = True
    report["order"] = order
    report["genus"] = G.genus()
    report["layers"] = [{"left": i, "vertex": v, "right": j} for (i, v, j) in layers]
    _emit(report, args)
    return 0


def cmd_aut_build(args) -> int:
    A, digest = _load_algebra(args.algebra)
    B = GradedTarget(A)
    lifts = derivation_lifts(B)[2]
    if lifts is None:
        raise CliError("derivation lift infeasible for this algebra", code=1)
    if args.order is not None and args.order > 3:
        raise CliError("truncation length above 3 not supported", code=3)
    N = args.order if args.order else 3
    phi = from_derivations(B, lifts, N=N)
    ok, where = validate_aut(phi)
    report = _header(args, digest)
    report["letters"] = len(lifts)
    report["valid"] = ok
    if not ok:
        w, i, j = where
        report["counterexample"] = {"word": list(w), "i": i, "j": j}
    report["family"] = phi.to_json()
    _emit(report, args)
    return 0 if ok else 1


def cmd_aut_probe(args) -> int:
    A, digest = _load_algebra(args.algebra)
    if args.order is None or args.order > 2:
        raise CliError("probe requires --order 1 or 2", code=3 if args.order else 2)
    res = surjectivity_probe(A, args.order)
    report = _header(args, digest)
    report.update(res)
    _emit(report, args)
    return 0 if res.get("spanned") else 1


def cmd_verify(args) -> int:
    A, digest = _read_algebra(args.algebra)
    rng = random.Random(args.seed)
    results = []

    def record(name: str, ok: bool, detail=None):
        entry = {"invariant": name, "pass": bool(ok)}
        if detail is not None and not ok:
            entry["counterexample"] = detail
        results.append(entry)

    try:
        check_algebra(A)
    except AlgebraError as e:
        # the other invariants presuppose an associative unital algebra
        record("algebra_associative_unital", False, str(e))
        return _verify_report(args, digest, results)
    record("algebra_associative_unital", True)

    B = GradedTarget(A)
    basis1 = solve_Dn(B, 1, 0)
    record("derivations_satisfy_leibniz", all(check_leibniz(P) for P in basis1))
    max_n = 2 if A.dim > 2 else 3
    for n in range(2, max_n + 1):
        basis = solve_Dn(B, n, 0)
        record(f"order_{n}_leibniz", all(check_leibniz(P) for P in basis))
        record(f"order_{n}_collapse", all(check_mP(P, 2) for P in basis))
    pool = basis1 + solve_Dn(B, 2, 0)
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
    record("compatibility_relation", ok_c)

    swap = Matrix.zeros(4, 4)
    swap.rows[0][0] = swap.rows[1][2] = swap.rows[2][1] = swap.rows[3][3] = Fraction(1)
    record("braid_swap", braid_check(swap, 2))

    P = EndProp(2)
    exprs_ok = True
    for _ in range(20):
        expr = _random_expr(rng, depth=2)
        try:
            nf = normalize(expr)
        except PropError:
            continue
        labels = {}
        for g in _gens_of(expr):
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
    record("normal_form_soundness", exprs_ok)
    return _verify_report(args, digest, results)


def _verify_report(args, digest: str, results: list[dict]) -> int:
    report = _header(args, digest)
    report["results"] = results
    report["all_pass"] = all(r["pass"] for r in results)
    _emit(report, args)
    return 0 if report["all_pass"] else 1


def _gens_of(e):
    match e:
        case Gen():
            yield e
        case HComp(a, b) | VComp(a, b):
            yield from _gens_of(a)
            yield from _gens_of(b)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planarprop",
        description="exact computations in the prop of multi-differential operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=True):
        p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
        p.add_argument("--out", help="write the JSON report to this path")
        if algebra:
            p.add_argument("--algebra", default="dualnum", help="spec file or one of dualnum, k2, m2")
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--shape", default=None)
        p.add_argument("--grade", type=int, default=0)

    p = sub.add_parser("dims", help="dimensions of operator spaces")
    common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("solve", help="basis of an operator space")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compose", help="compose two operators from JSON files")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=["h", "v", "d"], default="d")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("symbol", help="symbol exactness report at an order")
    common(p)
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("verify", help="run the invariant suites")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("normalize", help="normal form of a prop expression")
    p.add_argument("expr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("graph", help="level embedding and genus of a graph file")
    p.add_argument("file")
    p.add_argument("--backtrack-planarity", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("aut-build", help="build an automorphism family from lifted derivations")
    common(p)
    p.set_defaults(func=cmd_aut_build)

    p = sub.add_parser("aut-probe", help="symbol surjectivity probe")
    common(p)
    p.set_defaults(func=cmd_aut_probe)

    args = parser.parse_args(argv)
    try:
        for flag in ("order", "grade"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise CliError(f"--{flag} must be non-negative, got {value}")
        return args.func(args)
    except CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.code
    except FamilyError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3 if "truncation" in str(e) else 2


if __name__ == "__main__":
    sys.exit(main())
