"""Workload definitions: the config each workload hands the CLI, the command
line it runs, and the check its output must pass.

A workload is a fixed amount of work (one CLI invocation); its inputs are a
function of the benchmark seed alone.  The program only ever sees the
generated ``--config`` file, never the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())

# Statement ids of ``verify --suite all``, in the CLI's canonical order.
VERIFY_STATEMENTS = [
    "lemma-2.7", "lemma-2.8", "prop-2.9", "prop-2.11",
    "prop-3.4", "lemma-3.7", "prop-3.8", "cor-3.11",
]


def _all_monomials(d, nvars):
    out = []
    for head in itertools.product(range(d + 1), repeat=nvars - 1):
        rest = d - sum(head)
        if rest >= 0:
            out.append(list(head) + [rest])
    return sorted(out)


FAMILIES = {
    "hesse-cubic": {"n": 2, "d": 3, "exponents": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]]},
    "quartic-full": {"n": 2, "d": 4, "exponents": _all_monomials(4, 3)},
}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def field_labels(p, a):
    """The CLI's spelling of every GF(p^a) element, in its sweep order."""
    return [",".join(map(str, c)) for c in itertools.product(range(p), repeat=a)]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "symbolic", "det", "sweep" or "verify"
    family: str
    p: int
    a: int = 1
    sweep_k: int = 1  # 1-based input index swept by hw-eval

    @property
    def reference(self):
        return REFERENCES.get(self.name, {})

    def config(self, seed):
        cfg = dict(FAMILIES[self.family], p=self.p)
        if self.kind == "sweep":
            rng = random.Random(seed)
            cfg["a"] = self.a
            cfg["lambda"] = [
                ",".join(str(rng.randrange(self.p)) for _ in range(self.a))
                for _ in cfg["exponents"]
            ]
        if self.kind == "verify":
            cfg["seed"] = seed
        return cfg

    def cli_args(self, config_path):
        args = {
            "symbolic": ["hw-symbolic"],
            "det": ["generic-det"],
            "sweep": ["hw-eval", "--sweep", f"k={self.sweep_k}"],
            "verify": ["verify", "--suite", "all"],
        }[self.kind]
        return args + ["--config", str(config_path)]

    def oracle_values(self, seed):
        """The two swept values cross-checked against the dense oracle."""
        return random.Random(f"oracle-{seed}").sample(field_labels(self.p, self.a), 2)

    def check(self, seed, rc, stdout: bytes, oracle):
        """Return None when the output is right, else the reason it is not.

        ``oracle(values)`` maps swept values to the rank the dense oracle
        gives there, or returns a reason string when the symbolic path and
        the oracle disagree; it is only called for sweeps.
        """
        if rc != 0:
            return f"exit code {rc}"
        try:
            text = stdout.decode()
        except UnicodeDecodeError:
            return "stdout is not UTF-8"
        return getattr(self, "_check_" + self.kind)(seed, text, oracle)

    def _check_symbolic(self, seed, text, oracle):
        ref = self.reference["stdout_sha256"]
        if sha256(text) != ref:
            return "symbolic matrix differs from the pinned reference"
        return None

    def _check_det(self, seed, text, oracle):
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        for key in ("thm_2_3", "prop_2_11"):
            if out.get(key) != "pass":
                return f"{key} is {out.get(key)!r}"
        for key in ("det_A", "det_B"):
            if sha256(str(out.get(key))) != self.reference[key + "_sha256"]:
                return f"{key} differs from the pinned reference"
        return None

    def _check_sweep(self, seed, text, oracle):
        lines = text.splitlines()
        if not lines or lines[0] != "lambda_k,rank":
            return "sweep CSV header is wrong"
        ranks = {}
        for line in lines[1:]:
            value, _, rank = line.rpartition(",")
            if not rank.isdigit():
                return f"malformed sweep row {line!r}"
            ranks[value] = int(rank)
        if list(ranks) != field_labels(self.p, self.a) or len(lines) != len(ranks) + 1:
            return "sweep does not list every field element once, in order"
        size = sum(all(x > 0 for x in e) for e in FAMILIES[self.family]["exponents"])
        if any(r > size for r in ranks.values()):
            return "sweep rank exceeds the matrix size"
        pinned = self.reference.get("csv_sha256", {}).get(str(seed))
        if pinned is not None and sha256(text) != pinned:
            return "sweep CSV differs from the pinned reference"
        expected = oracle(self.oracle_values(seed))
        if isinstance(expected, str):
            return expected
        for value, rank in expected.items():
            if rank != ranks[value]:
                return f"rank at lambda_k={value} is {ranks[value]}, dense oracle says {rank}"
        return None

    def _check_verify(self, seed, text, oracle):
        try:
            reports = json.loads(text)["reports"]
            verdicts = [(r["statement"], r["passed"]) for r in reports]
        except (json.JSONDecodeError, KeyError, TypeError):
            return "verify output lacks the reports"
        if [s for s, _ in verdicts] != VERIFY_STATEMENTS:
            return f"verify ran {[s for s, _ in verdicts]}"
        failed = [s for s, ok in verdicts if ok is not True]
        if failed:
            return f"suites did not pass: {failed}"
        return None


WORKLOADS = {
    w.name: w
    for w in [
        Workload("symbolic-quartic-p11", "symbolic", "quartic-full", 11),
        Workload("det-quartic-p5", "det", "quartic-full", 5),
        Workload("sweep-quartic-gf49", "sweep", "quartic-full", 7, a=2),
        Workload("verify-quartic-p3", "verify", "quartic-full", 3),
    ]
}

# Tiny versions of the four kinds, used by the harness self-test.
SELFTEST_WORKLOADS = {
    w.name: w
    for w in [
        Workload("symbolic-hesse-p5", "symbolic", "hesse-cubic", 5),
        Workload("det-hesse-p5", "det", "hesse-cubic", 5),
        Workload("sweep-hesse-gf25", "sweep", "hesse-cubic", 5, a=2, sweep_k=4),
        Workload("verify-hesse-p5", "verify", "hesse-cubic", 5),
    ]
}
