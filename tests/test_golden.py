"""Golden outputs: the canonical stdout of the CLI must stay byte-identical
through refactors, apart from the ``seconds`` timing fields.

Each case is pinned as the sha256 of the CLI's stdout after every
``seconds`` field is removed and the JSON is re-serialised in the CLI's own
canonical form (``indent=2, sort_keys=True``).
"""

import hashlib
import json
import sys

import pytest

from hassewitt.cli import PRESETS, main

from conftest import strip_seconds


def canonical_digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    text = json.dumps(strip_seconds(json.loads(out)), indent=2, sort_keys=True)
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
    ("generic-det", "hesse-cubic", 3): (0, "91ae4e4d6c96a47bc9d3a5102572b3216b7295822849614b40367886c563a997"),
    ("generic-det", "hesse-cubic", 5): (0, "b0fe66f6e76dc3a6cf9c048c4346833f61697c6a025ff6343d2a047d6755f480"),
    ("generic-det", "hesse-cubic", 7): (0, "081b7121a03733c69d538557c389442387bda8516374b0e65a5e86d3f83e62ae"),
    ("generic-det", "quartic-full", 2): (0, "3fc43e8e9c72347228e09acbd61bf209ae3be70044bb2801a913a0b70b67c2be"),
    ("generic-det", "quartic-full", 3): (0, "8fdead51870ffa8cf1e180d4ddb4298baf1a7b073921d57eac3880d650aadaba"),
    ("generic-det", "quartic-full", 5): (0, "e2393312350078d36e07cdbd834a33f0e60f67ad0ff726bbad6838d92ef57559"),
    # the only 6x6 case: memoised minors deeper than 2x2
    ("generic-det", "quintic-full", 2): (0, "8f611d4a8307119ee6b47aa937d47c35d144b2d8620976affa6b4dfc3f85d1c6"),
}


@pytest.mark.parametrize("command,preset,p", sorted(GOLDEN))
def test_golden_output(capsys, command, preset, p):
    argv = [command, "--preset", preset, "--p", str(p)]
    assert canonical_digest(capsys, argv) == GOLDEN[(command, preset, p)]


# GOLDEN re-serialises the JSON, so it cannot see a change in the bytes the
# CLI writes; these pin the raw stdout: argv -> sha256 of stdout
RAW_GOLDEN = {
    # the benchmark's symbolic-quartic-p11 output
    ("hw-symbolic", "--preset", "quartic-full", "--p", "11"):
        "63b6be034d6895d3e09743ba109c1217ccc1c19e9e07e5cc4efdc3f38764bb82",
    # a 1x1 matrix
    ("hw-symbolic", "--preset", "hesse-cubic", "--p", "5"):
        "c50f01156519ce6625c3e4fae7bf9f1a656e144e36fe97408f48d024dc0dbdff",
    # a "0" entry
    ("hw-symbolic", "--preset", "fermat-cubic", "--p", "3"):
        "c63bacdee5d5e35766aded31626c77359f3098f0bf1582a4fece748f5687b71b",
    # 6x6
    ("hw-symbolic", "--preset", "quintic-full", "--p", "3"):
        "8e4832b181d8ff8177ffdbc200ec13dcbc437a5e7ff8c15acc242710b4cd946a",
    # 175 MB of entries with up to 81 248 terms, memoised walks of 8 levels
    ("hw-symbolic", "--preset", "quintic-full", "--p", "11"):
        "a15c4ce6d17548b1e67d4f14bc43aee0713208ddd4d72d945e5a2e1a8d0cd1a7",
    # the benchmark's det-quartic-p5 output
    ("generic-det", "--preset", "quartic-full", "--p", "5"):
        "b1da920e7bc650356a6c60b5b36d72b366621c5fcec04933ca4ac3fe9bf91bb0",
    ("generic-det", "--preset", "quartic-full", "--p", "3"):
        "ea2eeae2a194c6edfe286f5dde0713c728857daf2a9ca26e25961ed7673cc2ef",
    # a 1x1 matrix
    ("generic-det", "--preset", "hesse-cubic", "--p", "7"):
        "9a6bd578d85b4b797729e240580b6ae34c8f4c872accd9d226b1eef0c4733e97",
    # 6x6
    ("generic-det", "--preset", "quintic-full", "--p", "2"):
        "9f2d81b15cd2460d5f5916c2e7d0874eb01af79421fdf7972fae9c2c4f7ddc04",
}


class HashedStdout:
    """A stdout that keeps only the sha256 of what is written to it, so a
    large output is checked without being held."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", sorted(RAW_GOLDEN))
def test_golden_raw_stdout(monkeypatch, argv):
    stdout = HashedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    assert stdout.sha.hexdigest() == RAW_GOLDEN[argv]


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
    # a prime-field sweep: the entry is lambda^6 + 6*lambda^3 + 6, which has no
    # root in GF(7), so every rank is 1
    "sweep-hesse-gf7-k4": (
        "hesse-cubic", 7, 1, [1, 2, 3, 0], ["--sweep", "k=4"],
        0, "165882d12946d544cf95312b53384a66ff773702dde5f57b6fe622a6f34aa22b",
    ),
    # a zero in a fixed coordinate (lambda_5), not the swept one; ranks 2 and 3
    "sweep-quartic-gf9-zero-k2": (
        "quartic-full", 3, 2,
        ["1,2", "0,1", "2,0", "1,1", "0,0", "2,2", "1,0", "0,2", "2,1", "1,2",
         "2,0", "0,1", "1,1", "2,2", "1,0"],
        ["--sweep", "k=2"],
        0, "7135efe9bf6f5fcb8edb63d1807e78b78738c7b311906d992b73c136bc3e0218",
    ),
    # a 3x3 prime-field sweep; ranks 2 and 3
    "sweep-quartic-gf7-k7": (
        "quartic-full", 7, 1, [3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 0, 2, 6, 4, 3],
        ["--sweep", "k=7"],
        0, "451ea2fc2ce886d59ec8c60660aafbd9ee018a411e84d971e70e9060a67c69d8",
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


# verify, series, trunc and oracle cases with their own arguments, pinned like
# GOLDEN (seconds stripped): name -> (argv, exit code, sha256)
ARGV_GOLDEN = {
    "verify-hesse-cubic-5": (
        ["verify", "--preset", "hesse-cubic", "--p", "5", "--suite", "all"],
        0, "bffd0f3a108d8810db536d560ee313e00fb19c16b7153439c497d64303520396",
    ),
    "verify-quartic-full-3": (
        ["verify", "--preset", "quartic-full", "--p", "3", "--suite", "all"],
        0, "6036a5a2b3a8123b7cff18a2586e6d975acbf3494e0965c66f65075ce4820c8c",
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
    # oracle with no lambda: a point drawn from the config's seed (0)
    "oracle-hesse-cubic-3": (
        ["oracle", "--preset", "hesse-cubic", "--p", "3"],
        0, "0c2977a0bbe048afb9f6cecf451731191b249f77d4c576f146c7efb2b8a710df",
    ),
    "oracle-hesse-cubic-5": (
        ["oracle", "--preset", "hesse-cubic", "--p", "5"],
        0, "a14101ef8ee1baa524ff6a302770ed4a0679781486129e2e0fdaea50ad55ba48",
    ),
    "oracle-hesse-cubic-7": (
        ["oracle", "--preset", "hesse-cubic", "--p", "7"],
        0, "227a4a5a3a9299914522ed886a3de2f00c3b80356d6d0101ecd08b52cd19fd41",
    ),
    "oracle-quartic-full-3": (
        ["oracle", "--preset", "quartic-full", "--p", "3"],
        0, "f55bbc9c753eb2596f1662585c04f93df0d29836e570b9119b950a2111173b5e",
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


# oracle over GF(p^a) with no lambda: the point is drawn with the config's seed
# (0) from field.elements(), so these pin the element order as well as the
# agreement of evaluate_matrix with the dense expansion: name -> (preset, p, a,
# exit code, sha256 of canonical stdout, seconds stripped)
ORACLE_GF_GOLDEN = {
    "oracle-hesse-cubic-gf25": (
        "hesse-cubic", 5, 2,
        0, "eba6ec996346013fd6a63e4a13fc31ab4ff7e6d3186d841be57ef7514926dd7f",
    ),
    "oracle-quartic-full-gf9": (
        "quartic-full", 3, 2,
        0, "9a99e40ba04ac767f06e38cf3411a09310fffb406dcbd98937e84f501b200fa1",
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GF_GOLDEN))
def test_golden_oracle_extension_field(tmp_path, capsys, name):
    preset, p, a, code, digest = ORACLE_GF_GOLDEN[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(PRESETS[preset], p=p, a=a)))
    assert canonical_digest(capsys, ["oracle", "--config", str(path)]) == (code, digest)
