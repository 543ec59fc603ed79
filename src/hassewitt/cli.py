"""Command-line front end.

Reads a family configuration (JSON file or named preset), dispatches the
requested computation, and prints canonical JSON (or CSV for rank sweeps) on
standard output.

Exit codes: 0 all-pass, 1 verification failure, 2 malformed configuration
(a field above FIELD_BOUND, a generic-det determinant over DET_BOUND or
DET_WORK_BOUND and an --out that cannot be written included), 3
hypothesis violation (interior set not contained in the support), 141
(128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .algebra import DET_BOUND, DeterminantBoundError, ExtensionField, is_prime
from .geometry import SupportSet, monomials
from .hasse_witt import (
    HypothesisViolation,
    evaluate_matrix,
    generic_det,
    matrix_rank,
    sweep_ranks,
    symbolic_entry_text,
    symbolic_matrix,
)
from .hypergeometric import (
    derivative_series,
    rho_truncation,
    series_Gi,
    verify_truncation_identity,
)
from .reports import Text, timed
from .suites import SUITE_NAMES, oracle_equivalence, run_suites


PRESETS = {
    "hesse-cubic": {
        "n": 2,
        "d": 3,
        "exponents": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]],
    },
    "fermat-cubic": {
        "n": 2,
        "d": 3,
        "exponents": [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
    },
    "quartic-full": {
        "n": 2,
        "d": 4,
        "exponents": [list(a) for a in monomials(4, 3)],
    },
    "quintic-full": {
        "n": 2,
        "d": 5,
        "exponents": [list(a) for a in monomials(5, 3)],
    },
}


CONFIG_KEYS = ("n", "d", "exponents", "p", "a", "seed", "depth", "lambda")


class ConfigError(Exception):
    pass


def _is_int(x):
    """An integer, and not JSON true/false (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_config(args) -> dict:
    if args.preset:
        cfg = {k: v for k, v in PRESETS[args.preset].items()}
    elif args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a single JSON object")
    else:
        raise ConfigError("either --config or --preset is required")
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; accepted: {CONFIG_KEYS}")
    if args.p is not None:
        cfg["p"] = args.p
    cfg.setdefault("p", 5)
    cfg.setdefault("a", 1)
    cfg.setdefault("seed", 0)
    for key in ("n", "d", "p", "a", "seed"):
        if not _is_int(cfg.get(key)):
            raise ConfigError(f"config field {key!r} must be an integer")
    if cfg["n"] < 1:
        raise ConfigError(f"dimension n = {cfg['n']} must be >= 1")
    if not is_prime(cfg["p"]):
        raise ConfigError(f"p = {cfg['p']} is not prime")
    if cfg["a"] < 1:
        raise ConfigError(f"extension degree a = {cfg['a']} must be >= 1")
    if cfg.get("depth") is not None:
        _require_depth(cfg["depth"])
    exponents = cfg.get("exponents")
    if not isinstance(exponents, list) or not exponents or not all(
        isinstance(a, list) and all(_is_int(x) for x in a) for a in exponents
    ):
        raise ConfigError(
            "config field 'exponents' must be a nonempty list of integer lists"
        )
    return cfg


def build_support(cfg) -> SupportSet:
    try:
        return SupportSet.build(cfg["n"], cfg["d"], cfg["exponents"])
    except ValueError as exc:
        raise ConfigError(str(exc))


def _field(cfg):
    """The config's GF(p^a); a field above FIELD_BOUND is a ConfigError."""
    try:
        return ExtensionField(cfg["p"], cfg["a"])
    except ValueError as exc:
        raise ConfigError(str(exc))


def parse_lambda(cfg, support: SupportSet):
    """Parse the specialization point and permute it into internal index
    order (interior monomials first)."""
    raw = cfg.get("lambda")
    if raw is None:
        raise ConfigError("this command needs a 'lambda' entry in the config")
    if not isinstance(raw, list):
        raise ConfigError("'lambda' must be a list of field elements")
    if len(raw) != support.N:
        raise ConfigError(
            f"'lambda' has {len(raw)} entries, support has {support.N}"
        )
    field = _field(cfg)
    parsed = []
    for item in raw:
        if _is_int(item):
            parsed.append(field.from_int(item))
        elif isinstance(item, str):
            try:
                coeffs = [int(x) for x in item.split(",")]
            except ValueError:
                raise ConfigError(f"cannot parse field element {item!r}")
            if len(coeffs) > field.a:
                raise ConfigError(
                    f"field element {item!r} has too many coefficients for a={field.a}"
                )
            parsed.append(field.element(coeffs))
        else:
            raise ConfigError(f"cannot parse field element {item!r}")
    return tuple(parsed[k] for k in support.input_order), field


def _dump_json(payload, fh):
    """Write what ``json.dump(payload, fh, indent=2, sort_keys=True)`` and a
    newline write (for string keys), consuming a reports.Text as one string
    and any other Iterator as a list as they are written.  Pieces are held,
    up to io.DEFAULT_BUFFER_SIZE, and written when they outgrow it and at
    the end of each Text: nothing is written before the first Text is
    computed, and each is written before the next is computed.  A larger
    piece is written on its own, not joined."""
    size = io.DEFAULT_BUFFER_SIZE
    held = io.StringIO()
    for pieces, lazy in _json_chunks(payload, "\n"):
        for piece in pieces:
            if len(piece) > size:
                fh.write(held.getvalue())
                fh.write(piece)
                held = io.StringIO()
            else:
                held.write(piece)
                if held.tell() > size:
                    fh.write(held.getvalue())
                    held = io.StringIO()
            del piece  # a piece is not kept while the next is computed
        if lazy and held.tell():
            fh.write(held.getvalue())
            held = io.StringIO()
    fh.write(held.getvalue() + "\n")


def _json_chunks(value, newline):
    """(pieces, lazy) pairs that make up ``value`` in _dump_json's layout
    from indentation ``newline`` on: a tuple of layout and values, or, where
    lazy, the pieces of a Text, escaped as they come.  An Iterator makes a
    list, its items read one at a time."""
    inner = newline + "  "
    if isinstance(value, Text):
        yield ('"',), False
        yield map(_escape_piece, value.pieces), True
        yield ('"',), False
    elif isinstance(value, dict):
        separator = "{" + inner
        for key in sorted(value):
            yield (separator + encode_basestring_ascii(key) + ": ",), False
            yield from _json_chunks(value[key], inner)
            separator = "," + inner
        yield (newline + "}" if value else "{}",), False
    elif isinstance(value, (list, tuple, Iterator)):
        separator = "[" + inner
        for item in value:
            yield (separator,), False
            separator = "," + inner
            yield from _json_chunks(item, inner)
        yield (newline + "]" if separator[0] == "," else "[]",), False
    else:
        yield (json.dumps(value),), False


# the characters that a JSON string holds as they are
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def _escape_piece(piece):
    """The piece as it stands inside a JSON string: encode_basestring_ascii's
    escape of it without the quotes.  A piece that needs no escape, ASCII
    with nothing left once its plain characters are deleted, as every
    polynomial's text is, is returned itself, without an escaped copy."""
    if piece.isascii() and not piece.encode().translate(None, _PLAIN):
        return piece
    return encode_basestring_ascii(piece)[1:-1]


def _dump_lines(lines, fh):
    fh.writelines(line + "\n" for line in lines)


def _emit(payload, out_path=None, dump=_dump_json):
    """Write ``payload`` once with ``dump``: canonical JSON (_dump_json), or
    with ``dump=_dump_lines`` one line per string.  With --out it goes to
    that file, which is then copied to stdout, so the file is complete even
    when stdout's reader has gone.  No string of the whole output is
    built."""
    if out_path:
        with open(out_path, "w") as fh:
            dump(payload, fh)
        with open(out_path, newline="") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    else:
        dump(payload, sys.stdout)


def _check_out(path):
    """A ConfigError, before any computation, when --out cannot be opened
    for writing.  The probe changes nothing: an existing file is opened for
    append, and one that it creates is removed again."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}")
    if not existed:
        os.remove(path)


def cmd_hw_symbolic(args, cfg, support):
    # each entry is computed, written and dropped before the next
    p = cfg["p"]
    labels = support.interior_set()
    matrix = ((symbolic_entry_text(support, u, v, p) for v in labels) for u in labels)
    names = ["".join(map(str, u)) for u in labels]
    _emit({"labels": names, "matrix": matrix, "p": p}, args.out)
    return 0


def _sweep_index(sweep, support):
    """Internal index of the coordinate named by --sweep k=INDEX (1-based,
    input order)."""
    try:
        key, idx = sweep.split("=")
        if key != "k":
            raise ValueError
        idx = int(idx) - 1
    except ValueError:
        raise ConfigError("--sweep expects k=INDEX (1-based)")
    if not 0 <= idx < support.N:
        raise ConfigError(f"sweep index out of range 1..{support.N}")
    return support.input_order.index(idx)


def cmd_hw_eval(args, cfg, support):
    point, field = parse_lambda(cfg, support)
    k = _sweep_index(args.sweep, support) if args.sweep else None
    A = symbolic_matrix(support, cfg["p"])
    if k is not None:
        ranks = sweep_ranks(A, point, k, field)
        rows = [f"{x.canonical_str()},{r}" for x, r in zip(field.elements(), ranks)]
        _emit(["lambda_k,rank"] + rows, args.out, _dump_lines)
        return 0
    rows = evaluate_matrix(A, point, field)
    _emit(
        {
            "p": cfg["p"],
            "a": cfg["a"],
            "lambda": [x.canonical_str() for x in point],
            "matrix": [[x.canonical_str() for x in row] for row in rows],
            "rank": matrix_rank(rows),
        },
        args.out,
    )
    return 0


def _require_det_size(support):
    if support.m > DET_BOUND:
        raise ConfigError(
            f"matrix size m = {support.m} exceeds the determinant bound "
            f"{DET_BOUND} of generic-det"
        )


def cmd_generic_det(args, cfg, support):
    _require_det_size(support)
    ct, text_A, text_B = generic_det(support, cfg["p"])
    verdict = "pass" if ct == 1 else "fail"  # Prop 2.11, and with it Thm 2.3
    payload = {
        "det_A": text_A, "det_B": text_B, "det_B_constant_term": ct,
        "p": cfg["p"], "prop_2_11": verdict, "thm_2_3": verdict,
    }
    _emit(payload, args.out)
    return 0 if ct == 1 else 1


def _indices(args, support):
    i = 1 if args.i is None else args.i
    j = i if args.j is None else args.j
    if not 1 <= i <= support.m or not 1 <= j <= support.m:
        why = "" if support.m else ": the support holds no interior monomial"
        raise ConfigError(f"series indices must lie in 1..{support.m}{why}")
    return i - 1, j - 1


def _require_depth(depth):
    if not _is_int(depth) or depth < 1:
        raise ConfigError(f"depth must be an integer >= 1, got {depth!r}")
    return depth


def _depth(args, cfg):
    """--depth, else the config's depth, else p."""
    depth = cfg.get("depth") if args.depth is None else args.depth
    return cfg["p"] if depth is None else _require_depth(depth)


def cmd_series(args, cfg, support):
    i, j = _indices(args, support)
    depth = _depth(args, cfg)
    gi = series_Gi(support, i, depth)
    ds = derivative_series(gi, j)
    _emit(
        {
            "i": i + 1,
            "j": j + 1,
            "depth": depth,
            "G_i": gi.poly.canonical_str(),
            "derivative_series": ds.poly.canonical_str(),
        },
        args.out,
    )
    return 0


def cmd_trunc(args, cfg, support):
    i, j = _indices(args, support)
    p = cfg["p"]
    depth = _depth(args, cfg)
    if depth < p:
        raise ConfigError(
            f"trunc needs depth >= p = {p}: the window holds series terms "
            f"with -l_i up to p, got depth {depth}"
        )
    truncated = rho_truncation(series_Gi(support, i, depth), j, p)
    report = timed(verify_truncation_identity, support, i, j, p, truncated)
    _emit(
        {
            "i": i + 1,
            "j": j + 1,
            "p": p,
            "truncation": truncated.canonical_str(),
            "prop_3_8": report.to_dict(),
        },
        args.out,
    )
    return 0 if report.passed else 1


def cmd_verify(args, cfg, support):
    reports = run_suites(support, cfg["p"], args.suite, depth=cfg.get("depth"))
    _emit({"reports": [r.to_dict() for r in reports]}, args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_oracle(args, cfg, support):
    _field(cfg)  # a field above FIELD_BOUND exits 2 before the oracle builds it
    point = None
    if cfg.get("lambda") is not None:
        point, _ = parse_lambda(cfg, support)
    report = timed(
        oracle_equivalence, support, cfg["p"], cfg["a"], point=point, seed=cfg["seed"]
    )
    _emit({"report": report.to_dict()}, args.out)
    return 0 if report.passed else 1


COMMANDS = {
    "hw-symbolic": cmd_hw_symbolic,
    "hw-eval": cmd_hw_eval,
    "generic-det": cmd_generic_det,
    "series": cmd_series,
    "trunc": cmd_trunc,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hassewitt",
        description=(
            "Symbolic Hasse-Witt matrices of sparse hypersurface families "
            "and their hypergeometric verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON family configuration file")
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--p", type=int, help="override the prime")
        sp.add_argument("--out", help="also write the report to this file")
        if name in ("series", "trunc"):
            sp.add_argument("--i", type=int)
            sp.add_argument("--j", type=int)
            sp.add_argument("--depth", type=int)
        if name == "verify":
            sp.add_argument(
                "--suite", default="all", choices=("all",) + SUITE_NAMES
            )
        if name == "hw-eval":
            sp.add_argument("--sweep", help="k=INDEX: vary one coordinate "
                            "over the whole field, CSV output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        support = build_support(cfg)
        if args.out:
            _check_out(args.out)
        code = COMMANDS[args.command](args, cfg, support)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except (ConfigError, DeterminantBoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of stdout is gone: point its file descriptor at
        # os.devnull, so that the flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a reader hanging up


if __name__ == "__main__":
    sys.exit(main())
