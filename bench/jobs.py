"""The three workloads: a fixed menu of exact jobs, each with its oracle.

A workload's set-up writes its generated inputs (spec files for dense
conjugates, graph files) and solves the operator pools its jobs read.
`round(r)` then returns one full pass over the menu in a seeded order,
with seeded choices inside each job; it is a pure function of the
workload seed and `r`, so a traced run can replay an untraced one.

Every job returns None when its answer matches the oracle and a short
reason otherwise.  CLI jobs call `planarprop.cli.main(argv)` in-process;
jobs the CLI cannot express call one public library function.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from planarprop import cli
from planarprop.algebras import GradedTarget, dual_numbers, m2, save_algebra
from planarprop.families import (
    from_derivations,
    lift_derivation,
    pullback,
    r_map,
    units_inserted,
    validate_aut,
)
from planarprop.linalg import Matrix
from planarprop.operators import (
    DiffOperator,
    check_leibniz,
    check_mP,
    compose_D,
    degeneracy,
    h_compose,
    is_totally_positive,
    one_operator,
    solve_Dn,
    unit_operator,
    v_compose,
)
from planarprop.ordinals import MonotoneMap, all_epis, compose

import gen

HERE = os.path.dirname(os.path.abspath(__file__))


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


@dataclass
class Job:
    label: str  # menu item
    argv: list[str]  # CLI argv, or the library call with its arguments
    run: Callable[[], str | None]
    nnz: int  # nonzero structure constants of the algebra the job reads


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects malformed argv this way
            code = e.code
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def shape_key(base: str, args: list[str]) -> str:
    """Key of the isomorphism-invariant dims table: base|shape|grade."""
    opts = dict(zip(args[::2], args[1::2]))
    shape = opts.get("--shape") or opts["--order"]
    return f"{base}|{shape}|{opts.get('--grade', '0')}"


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.expected = load_expected()
        self.inputs: list[dict] = []  # what set-up generated, for the report
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def menu(self, rng: random.Random) -> list[Job]:
        raise NotImplementedError

    def round(self, r: int) -> list[Job]:
        rng = random.Random(self.seed * 1_000_003 + r)
        jobs = self.menu(rng)
        rng.shuffle(jobs)
        return jobs

    # -- shared helpers ----------------------------------------------

    def conjugates(self, base: str, count: int, rng: random.Random) -> list[tuple[str, int]]:
        """Write up to `count` distinct dense conjugates of `base` as spec
        files; returns (path, nonzero constants) pairs."""
        out = []
        for i, A in enumerate(gen.dense_conjugates(base, count, rng)):
            path = os.path.join(self.workdir, f"{base}_conj{i}.json")
            save_algebra(A, path)
            out.append((path, gen.nnz(A)))
            self.inputs.append({"input": os.path.basename(path), "base": base, "nnz": gen.nnz(A)})
        return out

    def std_cli(self, label: str, argv: list[str]) -> Job:
        """A standard-basis CLI job whose report must match its recorded
        byte digest (and exit code 0)."""
        want = self.expected["digests"][argv_key(argv)]
        base = argv[argv.index("--algebra") + 1]

        def run():
            code, text = run_cli(argv)
            if code != 0:
                return f"exit {code}"
            if digest(text) != want:
                return "report digest differs from the recorded one"
            return None

        return Job(label, argv, run, gen.nnz(gen.BASE_ALGEBRAS[base]()))


# -- solve --------------------------------------------------------------

# Standard bases: sparse structure constants, at larger sizes than the
# dense conjugates below.  The items around the median job (100-250 ms)
# are several different ones whose costs lie close together, so that
# job_p50_ms follows the host's speed drift smoothly, and each appears
# twice: the host's speed also swings within a second, and a run has few
# rounds, so the median needs the samples.
MEDIAN_STD = [
    ["dims", "--algebra", "m2", "--order", "2"],
    ["dims", "--algebra", "dualnum", "--shape", "2,2"],
    ["dims", "--algebra", "k2", "--order", "4"],
    ["solve", "--algebra", "k2", "--order", "3", "--grade", "1"],
    ["dims", "--algebra", "dualnum", "--order", "4"],
    ["solve", "--algebra", "dualnum", "--order", "4"],
    ["solve", "--algebra", "dualnum", "--order", "3", "--grade", "1"],
]
SOLVE_STD = MEDIAN_STD + MEDIAN_STD + [
    ["dims", "--algebra", "m2", "--order", "1", "--grade", "1"],
    ["dims", "--algebra", "m2", "--shape", "1,1"],
    ["solve", "--algebra", "dualnum", "--order", "2"],
]

# Dense conjugates: (command, base, options); small sizes, since dense
# constants cost up to ~100x more than the standard basis.  The three
# heaviest items of the menu (400-500 ms) are dense ones, each twice a
# round: a run then has 35 or more of them, so the tail (ten jobs beyond)
# falls inside that group in every run, however many rounds fit, and no
# item costs much more than they do.
TAIL_CONJ = [
    ("dims", "dualnum", ["--order", "3"]),
    ("dims", "k2", ["--order", "3"]),
    ("solve", "dualnum", ["--order", "2", "--grade", "1"]),
]
SOLVE_CONJ = TAIL_CONJ + TAIL_CONJ + [
    ("dims", "m2", ["--order", "1"]),
    ("solve", "m2", ["--order", "1"]),
    ("solve", "dualnum", ["--order", "2"]),
]

N_CONJ = 8  # conjugates written per base algebra, at most (k2 has one, dualnum two)


class SolveWorkload(Workload):
    name = "solve"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.conj = {b: self.conjugates(b, N_CONJ, rng) for b in ("dualnum", "k2", "m2")}

    def menu(self, rng):
        jobs = [self.std_cli("std " + " ".join(a[:1] + a[2:]), a + ["--seed", "0"]) for a in SOLVE_STD]
        for cmd, base, opts in SOLVE_CONJ:
            path, nz = rng.choice(self.conj[base])
            argv = [cmd, "--algebra", path] + opts + ["--seed", str(self.seed)]
            want = self.expected["dims"][shape_key(base, opts)]
            label = f"conj {cmd} {base} " + " ".join(opts)
            jobs.append(Job(label, argv, conj_dims_check(argv, cmd, want), nz))
        return jobs


def conj_dims_check(argv, cmd, want):
    def run():
        code, text = run_cli(argv)
        if code != 0:
            return f"exit {code}"
        report = json.loads(text)
        if cmd == "dims":
            got = report["dims"][0]["dim"]
        else:
            got = report["dim"]
        return None if got == want else f"dim {got}, expected {want}"

    return run


# -- compose ------------------------------------------------------------


class ComposeWorkload(Workload):
    name = "compose"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        # pools: (label, B, operators, nnz); conjugated m2 stops at order 1
        # because its dense order-2 space alone takes tens of seconds.
        self.pools: dict[str, list] = {"dualnum": [], "k2": [], "m2": []}
        for base, maker in gen.BASE_ALGEBRAS.items():
            B = GradedTarget(maker())
            self.pools[base].append(("std", B, solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0), gen.nnz(B.A)))
        self.spec_files = {}
        for base in ("dualnum", "k2", "m2"):
            top = 1 if base == "m2" else 2
            for i, A in enumerate(gen.dense_conjugates(base, 2, rng)):
                B = GradedTarget(A)
                ops = [P for n in range(1, top + 1) for P in solve_Dn(B, n, 0)]
                self.pools[base].append((f"conj{i}", B, ops, gen.nnz(A)))
                self.inputs.append({"input": f"{base}_conj{i}", "base": base, "nnz": gen.nnz(A)})
                if base != "m2":
                    path = os.path.join(self.workdir, f"{base}_conj{i}.json")
                    save_algebra(A, path)
                    self.spec_files.setdefault(base, []).append((path, gen.nnz(A)))
        self.graphs = []
        for i in range(8):
            G = gen.composite_graph(rng)
            path = os.path.join(self.workdir, f"graph{i}.json")
            with open(path, "w") as fh:
                json.dump(G.to_json(), fh)
            self.graphs.append((path, G))
            self.inputs.append({"input": f"graph{i}", "vertices": len(G.vertices), "edges": len(G.edges)})

    def menu(self, rng):
        # Each item fixes the algebra, the basis kind and the operator
        # orders, so its cost is about the same in every round; the seed
        # picks the operators, the conjugate and the graph.  A shared host
        # drifts between a fast and a slow speed.  So that the median job
        # follows that drift smoothly instead of jumping between the two
        # speeds of one repeated item, the items around the median (10-40
        # ms) are several different ones whose costs lie close together;
        # each of them runs twice a round, so the median has the samples.
        jobs = []
        for _ in range(2):
            jobs += [
                self._assoc(rng, "std", (1, 1, 2)),
                self._assoc(rng, "conj", (1, 1, 1)),
                self._collapse(rng, "dualnum", "std", 2),
                self._collapse(rng, "dualnum", "conj", 2),
                self._collapse(rng, "m2", "std", 1),
                self._verify(rng, "k2", "std"),
            ]
        return jobs + [
            self._assoc(rng, "std", (1, 2, 2)),
            self._assoc(rng, "conj", (1, 1, 2)),
            self._vh(rng, "dualnum", "std"),
            self._vh(rng, "dualnum", "conj"),
            self._vh(rng, "k2", "std"),
            self._collapse(rng, "m2", "std", 2, basis=3),
            self._collapse(rng, "m2", "conj", 1),
            self._degeneracy(rng),
            self._degeneracy(rng),
            self._verify(rng, "dualnum", "std"),
            self._verify(rng, "dualnum", "conj"),
            self._verify(rng, "k2", "conj"),
            self._graph(rng),
        ]

    def _pool(self, rng, base, kind):
        return rng.choice([p for p in self.pools[base] if p[0].startswith(kind)])

    def _combo(self, rng, ops, order):
        """A seeded integer combination, all coefficients nonzero, of the
        pool's basis operators of one order."""
        basis = [P for P in ops if P.order == order]
        out = None
        for P in basis:
            term = P.scale(rng.choice((-2, -1, 1, 2)))
            out = term if out is None else out.add(term)
        return out

    def _assoc(self, rng, kind, orders):
        tag, B, ops, nz = self._pool(rng, "dualnum", kind)
        a, b, c = (self._combo(rng, ops, n) for n in orders)

        def run():
            ab = compose_D(a, b)
            if not check_leibniz(ab):
                return "compose_D(a, b) fails the Leibniz system"
            if compose_D(ab, c) != compose_D(a, compose_D(b, c)):
                return "compose_D is not associative on this triple"
            return None

        argv = ["compose_D", f"dualnum/{tag}", *(_op_text(P) for P in (a, b, c))]
        return Job(f"assoc dualnum {kind} {orders}", argv, run, nz)

    def _vh(self, rng, base, kind):
        tag, B, ops, nz = self._pool(rng, base, kind)
        pool = ops + [unit_operator(B), unit_operator(B, 2)]
        a, b = rng.choice(pool), rng.choice(pool)

        def run():
            q = len(a.shape)
            if v_compose(a, unit_operator(B, q)) != a or v_compose(unit_operator(B, q), a) != a:
                return "vertical unit law fails"
            if h_compose(a, one_operator(B)) != a or h_compose(one_operator(B), a) != a:
                return "horizontal unit law fails"
            qa, qb = len(a.shape), len(b.shape)
            lhs = v_compose(h_compose(a, unit_operator(B, qb)), h_compose(unit_operator(B, qa), b))
            if lhs != h_compose(a, b):
                return "v/h interchange fails"
            return None

        argv = ["v_compose/h_compose", f"{base}/{tag}", _op_text(a), _op_text(b)]
        return Job(f"vh {base} {kind}", argv, run, nz)

    def _collapse(self, rng, base, kind, order, basis=None):
        """check_mP for d <= n+1 on a seeded combination of the pool's
        order-n basis, or on the basis operator with index `basis`: a
        combination of all twelve order-2 operators of m2 takes several
        seconds.  The index is fixed, not seeded, because those twelve
        differ twofold in cost, and this job sets job_tail_ms."""
        tag, B, ops, nz = self._pool(rng, base, kind)
        if basis is not None:
            P = [Q for Q in ops if Q.order == order][basis]
        else:
            P = self._combo(rng, ops, order)

        def run():
            for d in range(1, P.order + 2):
                if not check_mP(P, d):
                    return f"check_mP fails at d={d}"
            return None

        label = f"collapse {base} {kind} {'' if basis is None else 'basis '}order {order}"
        return Job(label, ["check_mP", f"{base}/{tag}", _op_text(P)], run, nz)

    def _degeneracy(self, rng):
        tag, B, ops, nz = self._pool(rng, "m2", "std")
        P = rng.choice(ops)
        n = P.order
        mm = rng.randint(n, 4)
        k = rng.randint(mm, 4)
        sigmas, taus = list(all_epis(mm, n)), list(all_epis(k, mm))
        sigma, tau = rng.choice(sigmas), rng.choice(taus)

        def run():
            if degeneracy(tau, degeneracy(sigma, P)) != degeneracy(compose(sigma, tau), P):
                return "degeneracy is not functorial here"
            return None

        argv = ["degeneracy", f"m2/{tag}", _op_text(P), str(sigma.values), str(tau.values)]
        return Job("degeneracy m2", argv, run, nz)

    def _verify(self, rng, base, kind):
        if kind == "std":
            spec, nz = base, gen.nnz(gen.BASE_ALGEBRAS[base]())
        else:
            spec, nz = rng.choice(self.spec_files[base])
        argv = ["verify", "--algebra", spec, "--seed", str(rng.randrange(1 << 16))]

        def run():
            code, text = run_cli(argv)
            if code != 0:
                return f"exit {code}"
            if json.loads(text)["all_pass"] is not True:
                return "an invariant suite failed"
            return None

        return Job(f"verify {base} {kind}", argv, run, nz)

    def _graph(self, rng):
        path, G = rng.choice(self.graphs)
        argv = ["graph", path]
        # oracle: E - V + 1 + marks, and an order that respects every edge
        genus = len(G.edges) - len(G.vertices) + 1 + sum(v.genus for v in G.vertices)

        def run():
            code, text = run_cli(argv)
            if code != 0:
                return f"exit {code}"
            report = json.loads(text)
            order = report["order"]
            if report["planar"] is not True or sorted(order) != list(range(len(G.vertices))):
                return "no level embedding"
            pos = {v: i for i, v in enumerate(order)}
            if any(pos[src[0]] <= pos[dst[0]] for src, dst in G.edges):
                return "level order breaks an edge"
            if report["genus"] != genus:
                return f"genus {report['genus']}, expected {genus}"
            return None

        return Job("graph", argv, run, 0)


def _op_text(P) -> str:
    """Compact JSON of an operator, so a failed job can be replayed."""
    return json.dumps(P.to_json(), separators=(",", ":"))


# -- aut ------------------------------------------------------------------

AUT_STD = [
    ["aut-build", "--algebra", "m2", "--order", "2"],
    ["aut-build", "--algebra", "m2", "--order", "1"],
    ["aut-build", "--algebra", "m2", "--order", "1"],
    ["aut-probe", "--algebra", "m2", "--order", "2"],
    ["aut-probe", "--algebra", "m2", "--order", "1"],
    ["aut-probe", "--algebra", "m2", "--order", "1"],
]

# fields of an aut-probe report that do not change under isomorphism
PROBE_INVARIANTS = ("dim_derivations", "dim_double_derivations", "lift_feasible", "symbol_dim", "span_rank", "spanned")


def dualnum_double_derivation() -> Matrix:
    """x -> x (x) x on k[x]/(x^2): the double derivation of criterion 10."""
    d = Matrix.zeros(4, 2)
    d.rows[3][1] = Fraction(1)
    return d


class AutWorkload(Workload):
    name = "aut"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.conj = self.conjugates("m2", N_CONJ, rng)
        self.Bd = GradedTarget(dual_numbers())
        self.d = dualnum_double_derivation()
        Bm = GradedTarget(m2())
        dd = [P.block((1,), (1,)) for P in solve_Dn(Bm, 1, 1)]
        lifts = [lift_derivation(Bm, P.block((1,), (0,)), dd) for P in solve_Dn(Bm, 1, 0)]
        self.phi_m = from_derivations(Bm, lifts, N=3)

    def menu(self, rng):
        jobs = [self.std_cli("std " + " ".join(a[:1] + a[2:]), a + ["--seed", "0"]) for a in AUT_STD]
        probe_want = self.expected["probe"]
        # The conjugate jobs (about 1 s) are the heaviest after the one
        # order-2 build (about 2 s) and come twice a round, so the tail
        # (ten jobs beyond) falls among them, with more samples around it.
        for cmd in ("aut-build", "aut-probe", "aut-build", "aut-probe"):
            path, nz = rng.choice(self.conj)
            argv = [cmd, "--algebra", path, "--order", "1", "--seed", str(self.seed)]
            jobs.append(Job(f"conj {cmd} m2 --order 1", argv, _aut_conj_check(argv, cmd, probe_want), nz))
        # As in the compose menu, the items around the median job are
        # several different ones whose costs lie close together: aut-build
        # and aut-probe --order 1 and the validate_aut checks at (letters,
        # N) = (1, 4), (2, 3) and (3, 2).  Each appears twice, so half of a
        # round's jobs lie there: the host's speed also swings within a
        # second, and a round has few jobs, so the median needs the samples.
        for letters, N in ((1, 3), (2, 3), (2, 3), (3, 3), (1, 4), (1, 4), (3, 2), (3, 2)):
            jobs.append(self._validate(rng, letters, N))
        jobs.append(self._r_map_dualnum(rng))
        jobs.append(self._r_map_m2(rng))
        jobs.append(self._square(rng))
        jobs.append(self._square(rng))
        return jobs

    def _scalars(self, rng, k):
        return [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))) for _ in range(k)]

    def _validate(self, rng, letters, N):
        cs = self._scalars(rng, letters)

        def run():
            phi = from_derivations(self.Bd, [self.d.scale(c) for c in cs], N=N)
            ok, where = validate_aut(phi)
            return None if ok else f"validate_aut fails at {where}"

        argv = ["from_derivations+validate_aut", "dualnum", f"N={N}", *map(str, cs)]
        return Job(f"validate_aut dualnum {letters} letters N={N}", argv, run, 3)

    def _r_map_dualnum(self, rng):
        c = self._scalars(rng, 1)[0]
        w = (0, 0)  # fixed length: the check's cost grows steeply with it

        def run():
            phi = from_derivations(self.Bd, [self.d.scale(c)], N=3)
            P = r_map(phi, w)
            if not check_leibniz(P) or not is_totally_positive(P):
                return "r_map image is not a totally positive operator"
            return None

        return Job("r_map dualnum", ["r_map", "dualnum", str(c), str(w)], run, 3)

    def _r_map_m2(self, rng):
        # single letters: check_leibniz on a two-letter image takes seconds
        w = (rng.randrange(3),)

        def run():
            P = r_map(self.phi_m, w)
            if not check_leibniz(P) or not is_totally_positive(P):
                return "r_map image is not a totally positive operator"
            return None

        return Job("r_map m2", ["r_map", "m2", str(w)], run, 8)

    def _square(self, rng):
        mtop = rng.randint(1, 3)
        ntop = rng.randint(1, mtop)
        sigma = rng.choice(list(all_epis(mtop, ntop)))
        cs = self._scalars(rng, ntop)

        def run():
            return pullback_square(self.Bd, [self.d.scale(c) for c in cs], sigma)

        argv = ["pullback+r_map+degeneracy", "dualnum", str(sigma.values), *map(str, cs)]
        return Job("pullback square", argv, run, 3)


def _aut_conj_check(argv, cmd, probe_want):
    def run():
        code, text = run_cli(argv)
        if code != 0:
            return f"exit {code}"
        report = json.loads(text)
        if cmd == "aut-build":
            if report["valid"] is not True or report["letters"] != 3:
                return "family is not a valid 3-letter automorphism family"
            return None
        want = probe_want["1"]
        bad = [k for k in PROBE_INVARIANTS if report.get(k) != want[k]]
        return f"probe fields differ: {bad}" if bad else None

    return run


def pullback_square(Bd, ders, sigma: MonotoneMap) -> str | None:
    """Criterion 10's square: r_map of the pulled-back family along sigma
    equals the degeneracy of r_map, with units inserted blockwise."""
    ntop, mtop = sigma.cod, sigma.dom
    phiH = from_derivations(Bd, ders, N=mtop)
    phiG = pullback(sigma, phiH)
    w = tuple(range(ntop))
    fibers = [len(sigma.fiber(h + 1)) for h in w]
    v = tuple(g - 1 for h in w for g in sigma.fiber(h + 1))
    left = r_map(phiG, v)
    sig_vals = [t for t, k in enumerate(fibers, start=1) for _ in range(k)]
    degQ = degeneracy(MonotoneMap(len(v), len(w), tuple(sig_vals)), r_map(phiH, w))
    comps = {}
    for lamp in degQ.components:
        lam, i = [], 0
        for part in lamp:
            acc = cnt = 0
            while acc < part:
                acc += fibers[i]
                i += 1
                cnt += 1
            lam.append(cnt)
        pos = j = 0
        mats, grades = [], []
        for cnt in lam:
            fl = fibers[j : j + cnt]
            j += cnt
            mats.append(units_inserted(Bd, phiH.word_map(w[pos : pos + cnt]), fl))
            grades.append(sum(fl))
            pos += cnt
        blk = mats[0]
        for mat in mats[1:]:
            blk = blk.kron(mat)
        comps.setdefault(lamp, {})[tuple(grades)] = blk
    if left != DiffOperator(Bd, (len(v),), len(v), comps):
        return "pullback/degeneracy square does not commute"
    return None


WORKLOADS = {w.name: w for w in (SolveWorkload, ComposeWorkload, AutWorkload)}
