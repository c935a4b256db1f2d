"""Coverage guard for the benchmark's tracing and oracle.

    python3 -m pytest bench/test_bench.py

Fails when a traced name no longer exists in planarprop, or when a
per-layer metric of BENCHMARK.json records nothing on the workload
manifest.json says it serves, so a rename cannot silently drop a layer.
"""

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _manifest():
    with open(os.path.join(HERE, "manifest.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("module,name", spans.TARGETS)
def test_traced_name_exists(module, name):
    obj = importlib.import_module(f"planarprop.{module}")
    for part in name.split("."):
        assert hasattr(obj, part), f"planarprop.{module}.{name} no longer exists"
        obj = getattr(obj, part)
    assert callable(obj)


def test_install_rebinds_every_binding_and_uninstall_restores():
    from planarprop import cli, operators

    orig = operators.solve_D
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.solve_D is operators.solve_D is not orig
        assert jobs.check_leibniz is operators.check_leibniz
        assert operators.enumerate_partitions.__wrapped__ is not operators.enumerate_partitions
    finally:
        tracer.uninstall()
    assert cli.solve_D is orig and operators.solve_D is orig


@pytest.fixture(scope="module")
def traced_rounds(tmp_path_factory):
    """One traced round of each workload at seed 1."""
    out = {}
    names = [n for n in run.metric_units()[1] if not n.startswith("trace.")]
    for name, cls in jobs.WORKLOADS.items():
        W = cls(1, str(tmp_path_factory.mktemp(name)))
        tracer = spans.Tracer()
        tracer.install()
        try:
            records = run.run_batch(W.round(0), 0, 0, tracer)
        finally:
            tracer.uninstall()
        out[name] = (records, spans.layer_metrics(tracer, names))
    return out


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_every_answer_is_correct_and_menu_is_recorded(traced_rounds, workload):
    records, _ = traced_rounds[workload]
    assert records and not [(r["label"], r["error"]) for r in records if r["error"]]
    assert sorted(r["label"] for r in records) == _manifest()["workloads"][workload]["menu"]


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_layer_metrics_nonzero_on_their_workload(traced_rounds, workload):
    _, values = traced_rounds[workload]
    layers = _manifest()["layers"]
    zero = [n for n in run.metric_units()[1] if layers[n]["on"] == workload and not values.get(n)]
    assert not zero, f"per-layer metrics with no record on {workload}: {zero}"


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_module_rows_add_up_to_traced_wall(traced_rounds, workload):
    records, values = traced_rounds[workload]
    modules = sum(v for k, v in values.items() if k.startswith("module."))
    assert modules == pytest.approx(sum(r["seconds"] for r in records), rel=0.01)


def test_oracle_rejects_a_wrong_dimension(tmp_path):
    W = jobs.SolveWorkload(1, str(tmp_path))
    path, _ = W.conj["m2"][0]
    check = jobs.conj_dims_check(["dims", "--algebra", path, "--order", "1"], "dims", 4)
    assert check() == "dim 3, expected 4"


def test_tail_has_ten_samples_beyond():
    value, pct, n, beyond = run.tail(list(range(100)))
    assert (value, n, beyond) == (89, 100, 10) and pct == 90.0


@pytest.mark.parametrize("base", sorted(gen.DENSE_SIGNS))
def test_dense_sign_table_is_complete(base):
    assert gen.dense_signs(base) == gen.DENSE_SIGNS[base]
