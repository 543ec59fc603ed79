"""The repository benchmark: four CLI workloads with a checked verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that holds this file.  Each
measured invocation is one fresh ``python3 -m hassewitt.cli`` process, as a
user runs it, in a closed loop with one client: the next starts only after
the previous has exited.  Invocations repeat until about S seconds have been
measured.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the median
over the run's invocations:
  wall_s       spawn to exit of one CLI invocation
  setup_s      spawn until the config is loaded and the SupportSet (and, for
               the sweep, the field) is built, i.e. until the first call from
               the CLI into hasse_witt/suites; measured by separate probe
               processes that exit at that call
  peak_rss_mb  the child's own peak resident set, from os.wait4
--trace 1 alternates untraced invocations with traced ones (spans installed
by bench/tracer.py) and reports the per-layer metrics.

Every output is checked (bench/workloads.py); an invocation fails on a wrong
exit code, a failed check, a crash or a timeout, and the failures go into
``failed`` out of ``attempted`` on the last line, which is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, sha256  # noqa: E402

RUN_BUDGET_S = 170  # a run must end within 180 s
SETUP_PROBES = 40


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values):
    """Median; for counts the lower median, so a count stays a whole number."""
    if not values:
        return 0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs():
    benchmark = spec()
    return benchmark["end_to_end"], benchmark["per_layer"]


@dataclass
class Outcome:
    rc: int | str  # exit code, "timeout" or "spawn failed"
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: str
    started: float


class Runner:
    """Spawns one child at a time and checks what it printed."""

    def __init__(self, workload, seed, workdir, deadline, corrupt=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.corrupt = corrupt
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps(workload.config(seed)))
        self.args = workload.cli_args(self.config)
        self.cli = [sys.executable, "-m", "hassewitt.cli"] + self.args
        self.attempted = 0
        self.failures = []
        self._verdicts = {}

    def spawn(self, argv):
        """Run ``argv`` through bench/spawn.py, which times it and reads its
        own peak memory; kill the whole group if the deadline passes."""
        paths = [self.workdir / name for name in ("stdout", "stderr", "spawn.json")]
        paths[2].unlink(missing_ok=True)
        timeout = max(0.0, self.deadline - now())
        spawner = [sys.executable, "-I", "-S", str(BENCH / "spawn.py"), str(paths[2]),
                   str(timeout), "--"] + argv
        with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
            proc = subprocess.Popen(spawner, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)
        try:
            proc.wait(timeout + 5)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        stdout, stderr = paths[0].read_bytes(), paths[1].read_text(errors="replace")
        if proc.returncode != 0 or not paths[2].exists():
            return Outcome("spawn failed", 0.0, 0.0, stdout, stderr, now())
        report = json.loads(paths[2].read_text())
        return Outcome(
            rc=report["rc"],
            wall=report["ended"] - report["started"],
            rss_mb=report["maxrss_kb"] / 1024,
            stdout=stdout,
            stderr=stderr,
            started=report["started"],
        )

    def checked(self, outcome):
        """Count one attempted invocation; return True when its output passed."""
        self.attempted += 1
        stdout = outcome.stdout
        if self.corrupt is not None:
            stdout = self.corrupt(self.workload, stdout)
        key = (outcome.rc, sha256(stdout))
        if key not in self._verdicts:
            if not isinstance(outcome.rc, int):
                reason = str(outcome.rc)
            else:
                reason = self.workload.check(self.seed, outcome.rc, stdout, self.oracle)
            self._verdicts[key] = reason
        reason = self._verdicts[key]
        if reason is not None:
            tail = outcome.stderr.strip().splitlines()[-1:] if outcome.rc != 0 else []
            self.failures.append(reason + "".join(f" ({t})" for t in tail))
        return reason is None

    def oracle(self, values):
        argv = [sys.executable, str(BENCH / "child.py"), "oracle", str(self.config),
                str(self.workload.sweep_k)] + values
        outcome = self.spawn(argv)
        if outcome.rc != 0:
            return f"dense-oracle cross-check exited with {outcome.rc}"
        return json.loads(outcome.stdout)

    def probe_setup(self):
        """Seconds from spawn to the end of set-up, or None on failure."""
        outcome = self.spawn([sys.executable, str(BENCH / "child.py"), "probe", "--"]
                             + self.args)
        self.attempted += 1
        try:
            if outcome.rc == 0:
                return float(outcome.stdout) - outcome.started
        except ValueError:
            pass
        self.failures.append(f"set-up probe exited with {outcome.rc}")
        return None

    def traced(self, audit=False):
        trace_path = self.workdir / "trace.json"
        trace_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), "trace", str(trace_path)]
        argv += ["--audit"] if audit else []
        outcome = self.spawn(argv + ["--"] + self.args)
        ok = self.checked(outcome)
        trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
        if trace is None and ok:
            self.failures.append("traced run wrote no trace")
        return outcome, trace

    def time_left(self, estimate):
        return now() + estimate < self.deadline - 5


def loop(seconds, runner, step):
    """Repeat ``step`` (which returns its duration) until about ``seconds``
    are measured: another step starts only if half of the typical step
    still fits."""
    start = now()
    durations = [step()]
    while True:
        typical = median(durations)
        if now() - start + typical / 2 >= seconds or not runner.time_left(typical):
            return
        durations.append(step())


def end_to_end(runner, seconds):
    setups = [s for s in (runner.probe_setup() for _ in range(SETUP_PROBES)) if s is not None]
    walls, rss = [], []

    def step():
        outcome = runner.spawn(runner.cli)
        if runner.checked(outcome):
            walls.append(outcome.wall)
            rss.append(outcome.rss_mb)
        return outcome.wall

    loop(seconds, runner, step)
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    return {name: median(v) for name, v in samples.items()}, samples


def layer_values(trace, wall, output_bytes):
    """Per-layer metric values of one traced invocation, by metric name."""
    spans, counts = trace["spans"], trace["counts"]
    values = dict(counts)
    for name, (calls, self_s) in spans.items():
        values[name + ".s"] = self_s
        values[name + ".calls"] = calls
        layer = name.split(".")[0]
        values[layer + ".s"] = values.get(layer + ".s", 0.0) + self_s
    used = counts.get("suites.box_relations.used", 0)
    values["suites.box_relations.nonvacuous_ratio"] = (
        counts.get("suites.box_relations.nonvacuous", 0) / used if used else 0.0
    )
    values["cli.output_bytes"] = output_bytes
    values["trace.attributed_share"] = sum(s for _, s in spans.values()) / wall
    return values


def per_layer(runner, seconds):
    untraced, traced, layers = [], [], []

    def step():
        plain = runner.spawn(runner.cli)
        if runner.checked(plain):
            untraced.append(plain.wall)
        outcome, trace = runner.traced()
        if trace is not None and outcome.rc == 0:
            traced.append(outcome.wall)
            layers.append(layer_values(trace, outcome.wall, len(outcome.stdout)))
        return plain.wall + outcome.wall

    loop(seconds, runner, step)
    names = {name for values in layers for name in values}
    result = {name: median([v.get(name, 0) for v in layers]) for name in names}
    result["trace.overhead_s"] = median(traced) - median(untraced)
    return result, {"traced wall_s": traced, "untraced wall_s": untraced}


def measure(workload, seed, seconds, trace, corrupt=None):
    """One benchmark run; returns the result object and printable notes."""
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, workdir, now() + RUN_BUDGET_S, corrupt)
        measured, samples = (per_layer if trace else end_to_end)(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    e2e, layers = metric_specs()
    failed = len(runner.failures)
    measured["fail_ratio"] = failed / max(1, runner.attempted)
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
        for m in (layers if trace else e2e)
    }
    notes = [f"{name}: n={len(v)} " + " ".join(f"{x:.4f}" for x in v)
             for name, v in samples.items()]
    notes += [f"FAILED: {reason}" for reason in runner.failures]
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def build():
    """The program is pure Python: check the sources are here, byte-compile."""
    if not (ROOT / "src" / "hassewitt" / "cli.py").is_file():
        sys.exit(f"bench: no hassewitt sources under {ROOT / 'src'}")
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        sys.exit("bench: the hassewitt sources do not compile")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    build()
    result, notes = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
