"""Golden outputs: the canonical stdout of the CLI must stay byte-identical
through refactors, apart from the ``seconds`` timing fields.

Each case is pinned as the sha256 of the CLI's stdout after every
``seconds`` field is removed and the JSON is re-serialised in the CLI's own
canonical form (``indent=2, sort_keys=True``).
"""

import hashlib
import json

import pytest

from hassewitt.cli import PRESETS, main


def _strip_seconds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_strip_seconds(v) for v in obj]
    return obj


def canonical_digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    text = json.dumps(_strip_seconds(json.loads(out)), indent=2, sort_keys=True)
    return code, hashlib.sha256(text.encode()).hexdigest()


# (subcommand, preset, p) -> (exit code, sha256 of canonical stdout)
GOLDEN = {
    ("hw-symbolic", "fermat-cubic", 3): (0, "47fc2d8d73e59c8fedd86a925ef7302c69850821cce182a42557a7d3bf0b604e"),
    ("hw-symbolic", "fermat-cubic", 5): (0, "c7a8f336fdf4bc32bcabb1cd200f0e63b532d1fc811c8f10b718ed1c04ad78f2"),
    ("hw-symbolic", "fermat-cubic", 7): (0, "ba06368da0f14069fb27cb844709d2d7080cb34d58b4645a59a73de91f49a75b"),
    ("hw-symbolic", "hesse-cubic", 3): (0, "d135df77ab29590763d85a32702a5ca261402ecbfea6999c407ce79291966930"),
    ("hw-symbolic", "hesse-cubic", 5): (0, "917424c3003da8525712a30fe3fab4078926a1fe1ab3935edae9ebb63823fa15"),
    ("hw-symbolic", "hesse-cubic", 7): (0, "9d9bde8b5d35865d1da0ed7f744744420da25f1967a393a2aa3dcf838e6779a9"),
    ("hw-symbolic", "quartic-full", 3): (0, "9afef562e6d331a269a4dceb271b93ab068fcc6ef03a8652cb9d60dc5adb4b2a"),
    ("hw-symbolic", "quartic-full", 5): (0, "81032b188714ed11fd032b4e911c35a776278905eba4b8527c45c822bd83dedf"),
    ("hw-symbolic", "quartic-full", 7): (0, "a5cbc4e2530ac50dbafb62dcfdb88efa062a7b8ec2ef61dbc6de0dde9e68716a"),
    ("hw-symbolic", "quintic-full", 3): (0, "5df71b8b480e9cf608a5e9557be7ae54eac0f94cb9c9bec2949b8e22f386a424"),
    ("hw-symbolic", "quintic-full", 5): (0, "b104f44b2e88511c045cc60ba6a70efe15cee33a43ba3a31fe7702108c2cf122"),
    ("hw-symbolic", "quintic-full", 7): (0, "64e183a24b961ae17981cabfd0e89f34532db47d1fd7ca67bc6a37f938b1300d"),
    ("generic-det", "hesse-cubic", 3): (0, "6bc9779fdc8f3b4ccef1c840260e1c0f01503596adeaef0f4aea123e46310292"),
    ("generic-det", "hesse-cubic", 5): (0, "a4829b0b1f2cec7dd1fc5aab1ab77870413c277be53c2045a62778847c2f818f"),
    ("generic-det", "hesse-cubic", 7): (0, "ace57123514dc244c787b70d99cf7c95ee79379699c5ab9842b33fd322157638"),
    ("generic-det", "quartic-full", 2): (0, "0ea2a2be44c9a4a9637aa489b5e02c3b359918bba89527abb0f3c451060ac79b"),
    ("generic-det", "quartic-full", 3): (0, "b464af745ab934539a0874aac89df200ccd2e6797e83d316b7a2dc4870ffc36d"),
    ("generic-det", "quartic-full", 5): (0, "3e5f2bb6401a1cfa12a70a6faf41ae351f9228305927cb56c14c254f0af29445"),
    # the only 6x6 case: memoised minors deeper than 2x2
    ("generic-det", "quintic-full", 2): (0, "52bc88f7c226c5b64b32888f9ed1c08c9af1c1e876a7d5513ff2b09c50423e39"),
}


@pytest.mark.parametrize("command,preset,p", sorted(GOLDEN))
def test_golden_output(capsys, command, preset, p):
    argv = [command, "--preset", preset, "--p", str(p)]
    assert canonical_digest(capsys, argv) == GOLDEN[(command, preset, p)]


# hw-eval cases, pinned as the sha256 of the raw stdout (the sweep prints CSV,
# and the single-point report has no timing field): name -> (preset, p, a,
# lambda in input order, extra CLI args, exit code, sha256 of stdout).
HW_EVAL_GOLDEN = {
    "sweep-hesse-gf25-k4": (
        "hesse-cubic", 5, 2, ["1,1", "2,0", "3,4", "0,0"], ["--sweep", "k=4"],
        0, "fed75e6edd640c1338eb57fc2d6f4e2be723ea0ac212916786081d0538ca43e1",
    ),
    # bench/workloads.py's sweep-quartic-gf49 point at seed 0; rank 2 at 1,2
    "sweep-quartic-gf49-k1": (
        "quartic-full", 7, 2,
        ["6,3", "6,3", "0,2", "4,3", "3,6", "6,2", "3,2", "4,1", "4,1", "2,1",
         "6,0", "4,6", "2,4", "5,6", "4,1"],
        ["--sweep", "k=1"],
        0, "76d78a1d06162c1c8df477aabcf3e0554e5063590bcb8f329b2d3dcc654421d3",
    ),
    "point-quartic-gf9": (
        "quartic-full", 3, 2,
        ["1,2", "0,1", "2,0", "1,1", "0,0", "2,2", "1,0", "0,2", "2,1", "1,2",
         "2,0", "0,1", "1,1", "2,2", "1,0"],
        [],
        0, "a38caae1bbc57b65c37d166750786e0bfcfaf63207aadac009f47b41d1bf00f5",
    ),
}


@pytest.mark.parametrize("name", sorted(HW_EVAL_GOLDEN))
def test_golden_hw_eval(tmp_path, capsys, name):
    preset, p, a, lam, extra, code, digest = HW_EVAL_GOLDEN[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(PRESETS[preset], p=p, a=a, **{"lambda": lam})))
    assert main(["hw-eval", "--config", str(path)] + extra) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# verify, series and trunc cases with their own arguments, pinned like
# GOLDEN (seconds stripped): name -> (argv, exit code, sha256)
ARGV_GOLDEN = {
    "verify-hesse-cubic-5": (
        ["verify", "--preset", "hesse-cubic", "--p", "5", "--suite", "all"],
        0, "f43fbcfb7e7c0dc4c0bb34e1c134c8f9cb227fe9efc1907d79d6cf164fbc04a3",
    ),
    "verify-quartic-full-3": (
        ["verify", "--preset", "quartic-full", "--p", "3", "--suite", "all"],
        0, "4b97dd28bd0f142a3ceb6af07f8eda21c3e883a503f1303dd8f09af0d3680778",
    ),
    "series-quartic-full-3-i1-j2": (
        ["series", "--preset", "quartic-full", "--p", "3", "--i", "1", "--j", "2"],
        0, "9a8970b4fb81d6703510bba8858f863b18eded357732b34a19e4d7d792ce43e1",
    ),
    # G_i starts 560/3*L1^-9*L2^3*L3^3*L4^3: a rational coefficient printed as a/b
    "series-hesse-cubic-11-i1-j1": (
        ["series", "--preset", "hesse-cubic", "--p", "11", "--i", "1", "--j", "1"],
        0, "4fc0771811e0f090df1f00492cb9c0d0542eaccf3a6b46440f8db7d6a3aa3602",
    ),
    "trunc-quartic-full-3-i1-j2": (
        ["trunc", "--preset", "quartic-full", "--p", "3", "--i", "1", "--j", "2"],
        0, "dc44fe6d3e155b3dc59e3c28961b571121fc48ea16842634281b7892482db89d",
    ),
}


@pytest.mark.parametrize("name", sorted(ARGV_GOLDEN))
def test_golden_argv(capsys, name):
    argv, code, digest = ARGV_GOLDEN[name]
    assert canonical_digest(capsys, argv) == (code, digest)
