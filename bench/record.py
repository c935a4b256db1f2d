"""Record the oracle the benchmark checks answers against: `expected.json`.

    python3 bench/record.py

It runs every standard-basis CLI job of the menus once and stores the
SHA-256 of its report (the byte-stability contract), the isomorphism-
invariant dimensions that dense conjugates must reproduce, and the
invariant fields of the order-1 surjectivity probe on m2.  Run it only
when a report is meant to change; the benchmark reads the file as is.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402

# D_lambda dimensions known independently of this script; the recorded
# table must agree with them.
KNOWN_DIMS = {
    "m2|1|0": 3,
    "m2|2|0": 12,
    "m2|3|0": 48,
    "m2|1,1|0": 9,
    "m2|1|1": 12,
    "dualnum|1|0": 1,
    "dualnum|2|0": 2,
    "dualnum|3|0": 4,
    "dualnum|4|0": 8,
    "dualnum|5|0": 16,
    "k2|1|0": 0,
    "k2|2|0": 0,
    "k2|3|0": 0,
    "k2|4|0": 0,
}


def main() -> int:
    digests = {}
    for argv in jobs.SOLVE_STD + jobs.AUT_STD:
        argv = argv + ["--seed", "0"]
        code, text = jobs.run_cli(argv)
        if code != 0:
            raise SystemExit(f"{jobs.argv_key(argv)} exited {code}")
        digests[jobs.argv_key(argv)] = jobs.digest(text)
    dims = {}
    for cmd, base, opts in jobs.SOLVE_CONJ:
        code, text = jobs.run_cli(["dims", "--algebra", base] + opts)
        dims[jobs.shape_key(base, opts)] = json.loads(text)["dims"][0]["dim"]
    for key, want in KNOWN_DIMS.items():
        if key in dims and dims[key] != want:
            raise SystemExit(f"dims {key}: computed {dims[key]}, known {want}")
    dims = dict(sorted({**KNOWN_DIMS, **dims}.items()))
    code, text = jobs.run_cli(["aut-probe", "--algebra", "m2", "--order", "1"])
    report = json.loads(text)
    probe = {"1": {k: report[k] for k in jobs.PROBE_INVARIANTS}}
    out = {"digests": digests, "dims": dims, "probe": probe}
    with open(os.path.join(jobs.HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
