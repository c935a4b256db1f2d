"""Span tracing of planarprop from outside the package.

`Tracer.install()` rebinds each traced public function or method to a
wrapper that records a span (name, start, end, parent span, job id).  A
function is rebound at every binding that holds it in planarprop's modules
and in the benchmark's `jobs` module, so callers that imported it by name
(`from .operators import solve_D`) see the wrapper too; a method is
rebound once, on its class.  Spans live in
arrays in memory and are written out by `write_csv` after the run.

A few traced names also feed counters (fill-in, unknowns, cache builds);
those are computed by hooks around the call, from its arguments and
result, never by changing the package.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

# (module, function or Class.method) for every traced name.  The span is
# named "<module>.<name>", with "__matmul__" shown as "matmul".
TARGETS = [
    ("cli", "main"),
    ("operators", "solve_D"),
    ("operators", "extend_degenerate"),
    ("operators", "check_mP"),
    ("operators", "check_leibniz"),
    ("operators", "compose_D"),
    ("operators", "v_compose"),
    ("operators", "h_compose"),
    ("operators", "degeneracy"),
    ("linalg", "SparseEchelon.add_row"),
    ("linalg", "SparseEchelon.nullspace"),
    ("linalg", "Matrix.apply"),
    ("linalg", "Matrix.kron"),
    ("linalg", "Matrix.__matmul__"),
    ("algebras", "GradedTarget.mB_matrix"),
    ("algebras", "GradedTarget.left_insert"),
    ("algebras", "GradedTarget.right_insert"),
    ("algebras", "FinAlgebra.mul_vec"),
    ("families", "validate_aut"),
    ("families", "AutFamily.word_map"),
    ("families", "lift_derivation"),
    ("families", "surjectivity_probe"),
    ("families", "r_map"),
    ("families", "from_derivations"),
    ("props", "normalize"),
    ("props", "eval_expr"),
    ("props", "eval_nf"),
    ("graphs", "PlanarGraph.level_embed"),
    ("partitions", "enumerate_partitions"),
    ("ordinals", "all_epis"),
]

MODULES = ("cli", "operators", "linalg", "algebras", "families", "props", "graphs", "ordinals", "partitions")

JOB_SPAN = "bench.job"  # root span of one job; its self time is the harness's own


def span_name(module: str, name: str) -> str:
    return f"{module}.{name.replace('__matmul__', 'matmul')}"


# Span groups reported under one metric name.
GROUPS = {
    "operators.vh_compose": ("operators.v_compose", "operators.h_compose"),
    "props.eval": ("props.eval_expr", "props.eval_nf"),
    "algebras.GradedTarget.insert": ("algebras.GradedTarget.left_insert", "algebras.GradedTarget.right_insert"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [JOB_SPAN]
        self.name_id = {JOB_SPAN: 0}
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self._job_keys: set = set()
        self._job_refs: list = []

    # -- recording ------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def run_job(self, job_id: int, fn):
        """Run fn() as the root span of job `job_id`."""
        self.job_id = job_id
        i = self._open(0)
        try:
            return fn()
        finally:
            self._close(i)
            self.counters["operators.extend_degenerate.distinct"] += len(self._job_keys)
            self._job_keys.clear()
            self._job_refs.clear()

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(tracer, args) if before else None
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if after:
                after(tracer, args, result, state)
            return result

        return wrapper

    # -- installing -----------------------------------------------------

    def _bindings(self):
        names = [n for n in sys.modules if n in ("planarprop", "jobs") or n.startswith("planarprop.")]
        return [sys.modules[n] for n in names]

    def install(self) -> None:
        mods = self._bindings()
        for module, name in TARGETS:
            mod = importlib.import_module(f"planarprop.{module}")
            sname = span_name(module, name)
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(sname, orig))
                continue
            orig = getattr(mod, name)
            wrapper = self._wrap(sname, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds (duration minus the time
        covered by child spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.job[i]}\n"
                )


# -- counter hooks: (before(tracer, args) -> state, after(tracer, args, result, state))


def _add_row_after(tr, args, result, state):
    if result:
        tr.counters["linalg.SparseEchelon.pivots"] += 1


def _nullspace_before(tr, args):
    tr.counters["linalg.SparseEchelon.pivot_nnz"] += sum(len(r) for r in args[0].pivot_rows.values())


def _solve_d_after(tr, args, result, state):
    from planarprop.operators import vector_layout

    B, shape = args[0], tuple(args[1])
    grade = args[2] if len(args) > 2 else 0
    if any(x > 0 for x in shape):
        tr.counters["operators.solve_D.unknowns"] += vector_layout(B, shape, grade)["total"]


def _kron_after(tr, args, result, state):
    tr.counters["linalg.Matrix.kron.entries"] += result.nrows * result.ncols


def _mb_before(tr, args):
    cache = getattr(args[0], "_mB_cache", None)
    return cache is None or (args[1], args[2]) not in cache


def _mb_after(tr, args, result, built):
    if built:
        tr.counters["algebras.GradedTarget.mB_matrix.builds"] += 1
        tr.counters["algebras.GradedTarget.mB_matrix.entries"] += result.nrows * result.ncols


def _extend_before(tr, args):
    P, lam = args[0], tuple(args[1])
    tr._job_keys.add((id(P), lam))
    tr._job_refs.append(P)  # keeps id(P) unique for the rest of the job


def _validate_after(tr, args, result, state):
    phi = args[0]
    ok, where = result
    words = sum(phi.n_letters**k for k in range(phi.N + 1))
    if not ok:
        w = where[0]
        words = sum(phi.n_letters**k for k in range(len(w))) + 1
    tr.counters["families.validate_aut.words"] += words


HOOKS = {
    "linalg.SparseEchelon.add_row": (None, _add_row_after),
    "linalg.SparseEchelon.nullspace": (_nullspace_before, None),
    "operators.solve_D": (None, _solve_d_after),
    "linalg.Matrix.kron": (None, _kron_after),
    "algebras.GradedTarget.mB_matrix": (_mb_before, _mb_after),
    "operators.extend_degenerate": (_extend_before, None),
    "families.validate_aut": (None, _validate_after),
}


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Values of the requested per-layer metrics.  A name is one of the
    COUNTERS, a module row "module.<m>.self_s" (the harness's own time is
    module "bench"), "linalg.SparseEchelon.pivot_ratio" (new pivots per
    row fed), or "<span or group>.calls" / ".self_s"."""
    agg = tracer.aggregate()
    modules = defaultdict(float)
    for name, row in agg.items():
        modules[name.split(".")[0]] += row["self_s"]
    out = {}
    for metric in names:
        if metric in COUNTERS:
            out[metric] = tracer.counters.get(metric, 0)
        elif metric.startswith("module."):
            out[metric] = modules.get(metric.split(".")[1], 0.0)
        elif metric == "linalg.SparseEchelon.pivot_ratio":
            calls = agg.get("linalg.SparseEchelon.add_row", {}).get("calls", 0)
            out[metric] = tracer.counters.get("linalg.SparseEchelon.pivots", 0) / calls if calls else 0.0
        else:
            base, field = metric.rsplit(".", 1)
            spans = GROUPS.get(base, (base,))
            out[metric] = sum(agg.get(s, {}).get(field, 0) for s in spans)
    return out


COUNTERS = {
    "linalg.SparseEchelon.pivot_nnz",
    "operators.solve_D.unknowns",
    "linalg.Matrix.kron.entries",
    "algebras.GradedTarget.mB_matrix.builds",
    "algebras.GradedTarget.mB_matrix.entries",
    "operators.extend_degenerate.distinct",
    "families.validate_aut.words",
}
