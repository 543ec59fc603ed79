"""Regenerate bench/references.json, the pinned outputs the checks compare with.

    python3 bench/pin.py

The references were taken once, at the commit that introduced the
benchmark, and stand for the right answer: a change that makes the program
faster must not re-pin them.  Sweep CSVs depend on the seed and are pinned
for seeds 0 .. SWEEP_SEEDS-1; other seeds are checked against the dense
oracle only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "references.json"
SWEEP_SEEDS = 10
if not OUT.exists():
    OUT.write_text("{}\n")
sys.path.insert(0, str(BENCH))

from workloads import SELFTEST_WORKLOADS, WORKLOADS, sha256  # noqa: E402


def run_cli(workload, seed):
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(workload.config(seed)))
        proc = subprocess.run(
            [sys.executable, "-m", "hassewitt.cli"] + workload.cli_args(config),
            capture_output=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
    if proc.returncode != 0:
        sys.exit(f"{workload.name}: exit code {proc.returncode}")
    return proc.stdout


def main():
    refs = {}
    for workload in list(WORKLOADS.values()) + list(SELFTEST_WORKLOADS.values()):
        if workload.kind == "symbolic":
            refs[workload.name] = {"stdout_sha256": sha256(run_cli(workload, 0))}
        elif workload.kind == "det":
            out = json.loads(run_cli(workload, 0))
            if not out["thm_2_3"] == out["prop_2_11"] == "pass":
                sys.exit(f"{workload.name}: the determinant checks do not pass")
            refs[workload.name] = {k + "_sha256": sha256(out[k]) for k in ("det_A", "det_B")}
        elif workload.kind == "sweep":
            refs[workload.name] = {"csv_sha256": {
                str(seed): sha256(run_cli(workload, seed)) for seed in range(SWEEP_SEEDS)
            }}
        print(workload.name, "pinned", flush=True)
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
