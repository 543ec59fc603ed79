"""What runs inside a benchmark child process.

    child.py probe -- CLI-ARGS          set-up probe: print the CLOCK_MONOTONIC
                                        time of the first call from the CLI
                                        into hasse_witt/hypergeometric/suites,
                                        then exit at once
    child.py trace OUT [--audit] -- CLI-ARGS
                                        run the CLI with spans installed and
                                        write them to OUT; --audit also counts
                                        calls with cProfile, to show that the
                                        spans saw every call
    child.py oracle CONFIG K VALUE...   dense-oracle cross-check of a sweep:
                                        print {VALUE: rank} from the dense
                                        expansion, after checking the point
                                        with suites.oracle_equivalence

``hassewitt`` must be importable (the harness puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import os
import sys
import time


def _cli_args(argv):
    return argv[argv.index("--") + 1:]


def probe(cli_args):
    from hassewitt import cli

    computing = {"hassewitt.hasse_witt", "hassewitt.hypergeometric", "hassewitt.suites"}

    def reached(*args, **kwargs):
        os.write(1, repr(time.clock_gettime(time.CLOCK_MONOTONIC)).encode())
        os._exit(0)

    for name, obj in list(vars(cli).items()):
        if (
            callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) in computing
        ):
            setattr(cli, name, reached)
    cli.main(cli_args)
    sys.exit(98)  # the CLI finished without calling into the computation


def trace(out_path, audit, cli_args):
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from hassewitt import cli

    profile = None
    if audit:
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    try:
        rc = cli.main(cli_args)
    finally:
        if profile is not None:
            profile.disable()
        sys.stdout.flush()
    result = tracer.dump()
    if profile is not None:
        result["audit"] = _audit(tracer, profile)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return rc


def _audit(tracer, profile):
    """span name -> [calls seen by the span, calls seen by cProfile], for
    every wrapped plain function."""
    import pstats

    by_code = {}
    for (filename, line, funcname), row in pstats.Stats(profile).stats.items():
        by_code[(filename, line, funcname)] = row[1]
    out = {}
    for name, fn in tracer.originals.items():
        code = getattr(fn, "__code__", None)
        if code is None:
            continue  # lru_cache wrappers: cProfile sees only cache misses
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = [tracer.spans[name][0], by_code.get(key, 0)]
    return out


def oracle(config_path, k, values):
    from hassewitt.algebra import ExtensionField
    from hassewitt.geometry import SupportSet
    from hassewitt.hasse_witt import oracle_dense_coefficient
    from hassewitt.suites import oracle_equivalence

    with open(config_path) as fh:
        cfg = json.load(fh)
    p, a = cfg["p"], cfg["a"]
    field = ExtensionField(p, a)
    support = SupportSet.build(cfg["n"], cfg["d"], cfg["exponents"])

    def parse(text):
        return field.element([int(c) for c in text.split(",")])

    ranks = {}
    for value in values:
        given = [parse(x) for x in cfg["lambda"]]
        given[k - 1] = parse(value)
        point = tuple(given[i] for i in support.input_order)
        report = oracle_equivalence(support, p, a, point=point)
        if not report.passed:
            return f"symbolic and dense oracle disagree at lambda_k={value}"
        labels = support.interior_set()
        ranks[value] = _rank([
            [oracle_dense_coefficient(support, point, p, u, v, field) for v in labels]
            for u in labels
        ])
    return ranks


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def main(argv):
    mode = argv[0]
    if mode == "probe":
        probe(_cli_args(argv))
    if mode == "trace":
        return trace(argv[1], "--audit" in argv[:argv.index("--")], _cli_args(argv))
    if mode == "oracle":
        print(json.dumps(oracle(argv[1], int(argv[2]), argv[3:])))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
