"""Exact-answer job benchmark for planarprop.

    python3 bench/run.py --workload solve|compose|aut --seed N --seconds S --trace 0|1

One client in one process sends a seeded stream of exact jobs, each only
after the previous one finished (a closed loop), and checks every answer
against the oracle in `expected.json`.  The stream is whole rounds of the
workload's menu; the run stops after the round in which `--seconds` ran
out.  With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
it runs rounds untraced for a third of the time, replays each of their
jobs twice, untraced and with every traced layer wrapped, and prints the
per-layer metrics and the tracing overhead.  Metric names and units come
from BENCHMARK.json.  Run from the repository root; planarprop is imported
from `src/` next to this directory and nowhere else.  Details go to
`.bench_out/`; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# setup_s is the median of SETUP_SAMPLES samples, each the mean time of
# SETUP_BATCH set-ups run back to back.  The first sample is taken before
# the timed phase; the others are spread over it, outside the timed wall.
# A shared host swings between a fast and a slow speed within a second:
# a single set-up catches one of the two, a batch averages over them, and
# spread samples keep one busy spell of the host from moving them all.
SETUP_BATCH = 3
SETUP_SAMPLES = 5
OUR_MODULES = ("planarprop", "jobs", "gen", "spans")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("solve", "compose", "aut"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _our_modules() -> list[str]:
    return [n for n in sys.modules if n.split(".")[0] in OUR_MODULES]


def fresh_import():
    """Import planarprop and the job modules from scratch; returns jobs."""
    for name in _our_modules():
        del sys.modules[name]
    import planarprop

    if os.path.dirname(os.path.abspath(planarprop.__file__)) != os.path.join(SRC, "planarprop"):
        raise SystemExit(f"planarprop was imported from {planarprop.__file__}, not from {SRC}")
    import jobs

    return jobs


def set_up(workload: str, seed: int, workdir: str, repeats: int):
    """Repeat import + input generation + pool solving; returns the last
    workload object and every set-up time."""
    times = []
    for _ in range(repeats):
        # Collect, then hide what is live from the collector while set-up
        # runs: each set-up then pays for its own objects only, whatever
        # the run has built up before it.
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        jobs = fresh_import()
        W = jobs.WORKLOADS[workload](seed, workdir)
        times.append(time.perf_counter() - t0)
        gc.unfreeze()
    return W, times


def set_up_aside(workload: str, seed: int, workdir: str) -> float:
    """One more set-up sample in the middle of a run, in its own directory;
    the modules the running workload uses are put back afterwards, and the
    new set-ups' garbage is collected before the run goes on."""
    keep = {n: sys.modules[n] for n in _our_modules()}
    os.makedirs(workdir, exist_ok=True)
    try:
        return statistics.fmean(set_up(workload, seed, workdir, SETUP_BATCH)[1])
    finally:
        for name in _our_modules():
            del sys.modules[name]
        sys.modules.update(keep)
        gc.collect()


def run_batch(batch, r: int, job_base: int, tracer=None) -> list[dict]:
    """Run the jobs of round `r` one after the other (traced when a tracer
    is given); returns one record per job, numbered from `job_base`."""
    records = []
    for job in batch:
        jid = job_base + len(records)
        t = time.perf_counter()
        try:
            err = tracer.run_job(jid, job.run) if tracer else job.run()
        except Exception as e:  # a job that raises is a failed job
            err = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
        records.append({"job": jid, "round": r, "label": job.label, "argv": job.argv,
                        "nnz": job.nnz, "seconds": dt, "error": err})
    return records


def run_rounds(W, seconds: float, after_round=None):
    """Run whole rounds until `seconds` of timed wall ran out, calling
    `after_round(timed wall so far)` after each, outside the timed wall.
    Returns the job records, the list of rounds run and the timed wall."""
    records, done = [], []
    t0 = time.perf_counter()
    paused = 0.0
    while not done or time.perf_counter() - t0 - paused < seconds:
        batch = W.round(len(done))
        records += run_batch(batch, len(done), len(records))
        done.append(batch)
        if after_round:
            t = time.perf_counter()
            after_round(t - t0 - paused)
            paused += time.perf_counter() - t
    return records, done, time.perf_counter() - t0 - paused


def tail(latencies_ms):
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, samples, samples beyond)."""
    xs = sorted(latencies_ms)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n, n - k - 1


def end_to_end(records, wall, setup_s):
    """Values of the end-to-end metrics, and notes printed beside them."""
    lat = [r["seconds"] * 1e3 for r in records]
    failed = sum(1 for r in records if r["error"])
    t_val, t_pct, n, beyond = tail(lat)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": len(records) / wall,
        "job_p50_ms": statistics.median(lat),
        "job_tail_ms": t_val,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / len(records),
    }
    notes = {
        "job_tail_ms": f"p{t_pct:.1f} of {n} jobs, {beyond} beyond",
        "failed_frac": f"{failed} of {len(records)} jobs",
    }
    return values, notes


def metric_units() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics, from
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def per_item(records):
    rows = {}
    for r in records:
        row = rows.setdefault(r["label"], {"jobs": 0, "ms": [], "nnz": set(), "failed": 0})
        row["jobs"] += 1
        row["ms"].append(r["seconds"] * 1e3)
        row["nnz"].add(r["nnz"])
        row["failed"] += bool(r["error"])
    return {
        k: {"jobs": v["jobs"], "median_ms": statistics.median(v["ms"]), "nnz": sorted(v["nnz"]),
            "failed": v["failed"]}
        for k, v in sorted(rows.items(), key=lambda kv: statistics.median(kv[1]["ms"]))
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "planarprop")):
        sys.stderr.write(f"error: no planarprop package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = os.path.join(OUT, f"work_{tag}_{os.getpid()}")
    os.makedirs(workdir)
    try:
        W, first = set_up(args.workload, args.seed, workdir, SETUP_BATCH)
        e2e_units, layer_units = metric_units()
        if args.trace:
            result, lines, detail = traced_run(W, args, layer_units)
        else:
            result, lines, detail = plain_run(W, args, workdir, statistics.fmean(first), e2e_units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "inputs": W.inputs, "python": sys.version.split()[0],
                   "nproc": os.cpu_count()})
    report_path = os.path.join(OUT, f"{tag}.json")
    with open(report_path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(line)
    print(f"details: {os.path.relpath(report_path, ROOT)}")
    print(json.dumps(result))
    return 0


def _failures(records):
    return [{"job": r["job"], "label": r["label"], "argv": r["argv"], "error": r["error"]}
            for r in records if r["error"]]


def plain_run(W, args, workdir, first_sample, units):
    samples = [first_sample]

    def after_round(elapsed):
        # take the samples due by now: the last one after the last round
        due = 1 + min(SETUP_SAMPLES - 1, int(elapsed / args.seconds * (SETUP_SAMPLES - 1)))
        while len(samples) < due:
            samples.append(set_up_aside(args.workload, args.seed, os.path.join(workdir, "aside")))

    records, done, wall = run_rounds(W, args.seconds, after_round)
    values, notes = end_to_end(records, wall, statistics.median(samples))
    failures = _failures(records)
    lines = [f"rounds {len(done)}  jobs {len(records)}  timed {wall:.2f} s  "
             f"set-up samples {', '.join(f'{t:.3f}' for t in samples)} s"]
    for name, value in values.items():
        unit = units.get(name, "ratio")
        lines.append(f"  {name:12s} {value:12.4f} {unit:6s} {notes.get(name, '')}".rstrip())
    lines += [f"  FAILED job {f['job']} {f['label']}: {f['error']}\n    argv: {f['argv']}" for f in failures]
    for label, row in per_item(records).items():
        lines.append(f"    {row['median_ms']:10.2f} ms  x{row['jobs']:<3d} nnz {row['nnz']}  {label}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    detail = {"metrics": values, "notes": notes, "setup_samples_s": samples, "wall_s": wall,
              "failures": failures, "jobs": records}
    return result, lines, detail


def traced_run(W, args, units):
    """Run rounds untraced for a third of the time, which fixes the rounds
    and warms every cache they touch; then replay each job of them twice,
    untraced and traced, in alternating order.  Pairing single jobs keeps
    the host's speed drift out of the traced/untraced ratio.  Reports the
    per-layer metrics of the traced replays and that ratio."""
    import spans

    records, rounds, _ = run_rounds(W, args.seconds / 3)
    tracer = spans.Tracer()
    took = {False: 0.0, True: 0.0}
    for r, batch in enumerate(rounds):
        for i, job in enumerate(batch):
            for traced in (False, True) if (r + i) % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    recs = run_batch([job], r, len(records), tracer if traced else None)
                finally:
                    tracer.uninstall()
                records += recs
                took[traced] += recs[0]["seconds"]
    traced_s, untraced_s = took[True], took[False]
    ratio = traced_s / untraced_s
    values = spans.layer_metrics(tracer, [n for n in units if not n.startswith("trace.")])
    values.update({"trace.rounds": len(rounds), "trace.wall_s": traced_s,
                   "trace.untraced_wall_s": untraced_s, "trace.overhead_ratio": ratio})
    failures = _failures(records)
    span_path = os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.csv")
    tracer.write_csv(span_path)
    modules = sum(v for k, v in values.items() if k.startswith("module."))
    lines = [f"rounds {len(rounds)} replayed untraced ({untraced_s:.2f} s) and traced ({traced_s:.2f} s): "
             f"overhead x{ratio:.3f}",
             f"spans {len(tracer.start)} -> {os.path.relpath(span_path, ROOT)}; "
             f"module self times add up to {modules:.3f} s of {traced_s:.3f} s traced"]
    for name, unit in units.items():
        lines.append(f"  {name:48s} {values[name]:16.6f} {unit}")
    lines += [f"  FAILED job {f['job']} {f['label']}: {f['error']}\n    argv: {f['argv']}" for f in failures]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    detail = {"per_layer": values, "failures": failures, "jobs": records,
              "spans": os.path.relpath(span_path, ROOT)}
    return result, lines, detail


if __name__ == "__main__":
    sys.exit(main())
