"""Self-test of the benchmark harness on tiny inputs (hesse-cubic, p=5).

    python3 bench/selftest.py

It prints every end-to-end and per-layer metric with its unit for tiny
versions of the four workload kinds, and fails (exit code 1) unless

- clean runs pass every check (fail_ratio 0);
- the spans saw every call: for each wrapped function, the calls its span
  counted equal the calls cProfile counted;
- every per-layer metric is nonzero on at least one tiny workload, so no
  name in BENCHMARK.json misses its span or counter;
- a deliberately corrupted output (one changed matrix or determinant
  coefficient, one wrong rank, one failed verdict) fails every check it
  reaches, pinned seed or not, and shows up in fail_ratio.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import run
from workloads import SELFTEST_WORKLOADS

SECONDS = 0.5
UNPINNED_SEED = 1000
ALWAYS_ZERO_OK = {"fail_ratio"}


def bump_first_coefficient(workload, stdout):
    """Change the first coefficient of the first polynomial to another unit."""
    def bump(match):
        c = int(match.group(1))
        return b'"%d*L' % (c % (workload.p - 1) + 1)
    return re.sub(rb'"(\d+)\*L', bump, stdout, count=1)


def wrong_rank_at(value):
    def corrupt(workload, stdout):
        lines = stdout.decode().split("\n")
        for i, line in enumerate(lines):
            label, _, rank = line.rpartition(",")
            if label == value:
                lines[i] = f"{label},{int(rank) ^ 1}"
        return "\n".join(lines).encode()
    return corrupt


def fail_first_verdict(workload, stdout):
    return stdout.replace(b'"passed": true', b'"passed": false', 1)


def corruptions():
    """(workload, seed, corrupt, description) for every output check."""
    w = SELFTEST_WORKLOADS
    sweep = w["sweep-hesse-gf25"]
    return [
        (w["symbolic-hesse-p5"], 0, bump_first_coefficient, "one matrix coefficient changed"),
        (w["det-hesse-p5"], 0, bump_first_coefficient, "one det_A coefficient changed"),
        (sweep, 0, wrong_rank_at(sweep.oracle_values(0)[0]), "one wrong rank, pinned seed"),
        (sweep, UNPINNED_SEED, wrong_rank_at(sweep.oracle_values(UNPINNED_SEED)[0]),
         "one wrong rank, unpinned seed (dense oracle)"),
        (w["verify-hesse-p5"], 0, fail_first_verdict, "one verdict flipped to false"),
    ]


def audit(workload, problems):
    """Compare span call counts with cProfile's for one traced invocation."""
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        runner = run.Runner(workload, 0, Path(tmp), run.now() + run.RUN_BUDGET_S)
        _, trace = runner.traced(audit=True)
    problems += [f"{workload.name}: {f}" for f in runner.failures]
    for name, (spanned, profiled) in (trace or {}).get("audit", {}).items():
        if spanned != profiled:
            problems.append(f"{workload.name}: span {name} saw {spanned} of {profiled} calls")


def main():
    run.build()
    e2e, layers = run.metric_specs()
    problems = []
    seen_nonzero = set()
    for workload in SELFTEST_WORKLOADS.values():
        for seed in (0, UNPINNED_SEED):
            for trace in (0, 1):
                result, notes = run.measure(workload, seed, SECONDS, trace)
                print(f"== {workload.name} seed={seed} trace={trace}: "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"fail_ratio={result['failed'] / result['attempted']}")
                for name, m in result["metrics"].items():
                    print(f"   {name} = {m['value']} {m['unit']}")
                    if m["value"]:
                        seen_nonzero.add(name)
                if not result["correct"]:
                    problems += [f"{workload.name} seed={seed}: {n}" for n in notes]
        audit(workload, problems)
    for m in e2e + layers:
        if m["name"] not in seen_nonzero | ALWAYS_ZERO_OK:
            problems.append(f"metric {m['name']} is zero on every tiny workload")
    for workload, seed, corrupt, what in corruptions():
        result, _ = run.measure(workload, seed, SECONDS, 0, corrupt=corrupt)
        invocations = result["attempted"] - run.SETUP_PROBES
        print(f"== corrupted {workload.name} seed={seed} ({what}): "
              f"fail_ratio={result['failed'] / result['attempted']} "
              f"({result['failed']} of {result['attempted']}, {invocations} corrupted)")
        if result["failed"] != invocations or result["correct"]:
            problems.append(f"corruption not caught: {workload.name} seed={seed}: {what}")
    for p in problems:
        print("PROBLEM:", p)
    print(json.dumps({"selftest": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
