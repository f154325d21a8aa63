"""The report commands print exactly what they printed when this table was
recorded: the exit code and the sha256 of stdout of validate, cohomology,
hochschild, derivations and chainmap-check, in text and JSON, on samples 6,
14 and 16 and on the pair whose four dimensions are 1 and whose structure
is zero.  A change meant to keep the output byte for byte is held to it
here; a change meant to alter it records the table again with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from rotabaxter import cli, fileformat as ff
from rotabaxter.rrb_modules import RRBBimodule
from rotabaxter.samples import random_rrb_pair

from helpers import zero_rrb

COMMANDS = {
    "validate": ("validate",),
    "cohomology": ("cohomology", "--max-degree", "3"),
    "hochschild": ("hochschild", "--max-degree", "3"),
    "derivations": ("derivations",),
    "chainmap-check": ("chainmap-check",),
}
FORMATS = ("text", "json")


def fixture(name):
    if name == "ones":
        x = zero_rrb(1, 1)
        return x, RRBBimodule.zero(x, 1, 1)
    return random_rrb_pair(int(name.removeprefix("sample")))


def write_fixture(name, path):
    x, b = fixture(name)
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    ff.write_path(doc, path)


def run(command, fmt, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([*COMMANDS[command], str(path), "--format", fmt])
    return rc, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


# (fixture, command, format) -> (exit code, sha256 of stdout)
GOLDEN = {
    ('sample6', 'validate', 'text'):
        (0, '873681e5a5bbc02196f0847d05bb38b84f0f327c7937a4e1bc7521cf5270d206'),
    ('sample6', 'validate', 'json'):
        (0, '34b4c432c657c32aa2c875b016afbd3b673848fe3cc16030a32c2514fd8a3201'),
    ('sample6', 'cohomology', 'text'):
        (0, '114df62e7040a7aaff40a2d8d3d796f327d00c270c3f6af9d7005375b04af937'),
    ('sample6', 'cohomology', 'json'):
        (0, '4520a932692564d491af00a0d825fc5b67e1c97204d60a8593ce3745210e9e28'),
    ('sample6', 'hochschild', 'text'):
        (0, '5a9681a40d8f96b7ac0b3203a6bcdfed08466dbf532be688fd804dceee287707'),
    ('sample6', 'hochschild', 'json'):
        (0, 'b3946316c33705ce39e59fa9b2cd69cc8f74d88cdaf699f3f5cfde49734d08cd'),
    ('sample6', 'derivations', 'text'):
        (0, '5a44e309029e8c6d767b2157c858e4a2d1dce474f49f545a7ef6977ea520c59b'),
    ('sample6', 'derivations', 'json'):
        (0, 'fde07693c16b69dd42e0f4226c0b35f7d2318acd717085ad4d6d77dfe976e1ba'),
    ('sample6', 'chainmap-check', 'text'):
        (0, 'b5e1e621600a1a356293ef6b50e66778d54d1ea1fca2b4479e52617f81903a3c'),
    ('sample6', 'chainmap-check', 'json'):
        (0, '61771a646f31d3ed1e324e671fde409a9ff76e0b0754e451596f1da269e73eae'),
    ('sample14', 'validate', 'text'):
        (0, '873681e5a5bbc02196f0847d05bb38b84f0f327c7937a4e1bc7521cf5270d206'),
    ('sample14', 'validate', 'json'):
        (0, '34b4c432c657c32aa2c875b016afbd3b673848fe3cc16030a32c2514fd8a3201'),
    ('sample14', 'cohomology', 'text'):
        (0, '64ee25f5a2d38e1748ce1848b68e940fd582f2ea6a52b6deb9d1841f46bb2cba'),
    ('sample14', 'cohomology', 'json'):
        (0, '3fd4b8a4d836a1c98446fab9bea3f1168e8ef8d6152765c14e2fad6e8d65ee7c'),
    ('sample14', 'hochschild', 'text'):
        (0, 'a554546d29c8f57efbcd73dfa5f2bc4ffebb7ec219451cdc78188477c510a64f'),
    ('sample14', 'hochschild', 'json'):
        (0, 'a63afcd27b3d40b3daabdb6babfffe93c07b0a48877d628dfeaaf9a823eccea6'),
    ('sample14', 'derivations', 'text'):
        (0, 'c20783d1b8b69772b66d6fa96fa9d12af1286077e416a1706420817ebd94bb4a'),
    ('sample14', 'derivations', 'json'):
        (0, '2c3f854f1c9234cd0e4de34293e2c19e436a98eca9c2e67e3e9f686d6df7e643'),
    ('sample14', 'chainmap-check', 'text'):
        (0, 'b5e1e621600a1a356293ef6b50e66778d54d1ea1fca2b4479e52617f81903a3c'),
    ('sample14', 'chainmap-check', 'json'):
        (0, '61771a646f31d3ed1e324e671fde409a9ff76e0b0754e451596f1da269e73eae'),
    ('sample16', 'validate', 'text'):
        (0, '873681e5a5bbc02196f0847d05bb38b84f0f327c7937a4e1bc7521cf5270d206'),
    ('sample16', 'validate', 'json'):
        (0, '34b4c432c657c32aa2c875b016afbd3b673848fe3cc16030a32c2514fd8a3201'),
    ('sample16', 'cohomology', 'text'):
        (0, '64ee25f5a2d38e1748ce1848b68e940fd582f2ea6a52b6deb9d1841f46bb2cba'),
    ('sample16', 'cohomology', 'json'):
        (0, '3fd4b8a4d836a1c98446fab9bea3f1168e8ef8d6152765c14e2fad6e8d65ee7c'),
    ('sample16', 'hochschild', 'text'):
        (0, 'a554546d29c8f57efbcd73dfa5f2bc4ffebb7ec219451cdc78188477c510a64f'),
    ('sample16', 'hochschild', 'json'):
        (0, 'a63afcd27b3d40b3daabdb6babfffe93c07b0a48877d628dfeaaf9a823eccea6'),
    ('sample16', 'derivations', 'text'):
        (0, 'fe9659d14810206c31502bb42c179f150b41f2f325a317e37366e0aaeccf9b9f'),
    ('sample16', 'derivations', 'json'):
        (0, 'c02a749ef37684b1962e3297521d041f9a9c98f186b345048d9c25b51b808f76'),
    ('sample16', 'chainmap-check', 'text'):
        (0, 'b5e1e621600a1a356293ef6b50e66778d54d1ea1fca2b4479e52617f81903a3c'),
    ('sample16', 'chainmap-check', 'json'):
        (0, '61771a646f31d3ed1e324e671fde409a9ff76e0b0754e451596f1da269e73eae'),
    ('ones', 'validate', 'text'):
        (0, '873681e5a5bbc02196f0847d05bb38b84f0f327c7937a4e1bc7521cf5270d206'),
    ('ones', 'validate', 'json'):
        (0, '34b4c432c657c32aa2c875b016afbd3b673848fe3cc16030a32c2514fd8a3201'),
    ('ones', 'cohomology', 'text'):
        (0, '63b3a09900d9e80ffa648d10b07b906626b849a9d63dda6de5c472e869253e91'),
    ('ones', 'cohomology', 'json'):
        (0, 'f0d3f84aed9a36b434f794dfd7f86af2944ff3efb5f9427c131b2306efc1bdfe'),
    ('ones', 'hochschild', 'text'):
        (0, 'f8a10581974c063c806819649f84cebe2ac5d0c4eea76c91ff2b2079c0ddc866'),
    ('ones', 'hochschild', 'json'):
        (0, 'e87b90444882a2ef5be4a03c65474f2bf3417d31db7638e93c99fde5daa37a23'),
    ('ones', 'derivations', 'text'):
        (0, '8639616c304eaf9a3da692b432a9c713f274423c75763a30bcf6f9ab089a47c8'),
    ('ones', 'derivations', 'json'):
        (0, '5ce4d1b7312c316e68a28e164287e1386e3ac591f94b08ffe8a050ef52ec647f'),
    ('ones', 'chainmap-check', 'text'):
        (0, 'b5e1e621600a1a356293ef6b50e66778d54d1ea1fca2b4479e52617f81903a3c'),
    ('ones', 'chainmap-check', 'json'):
        (0, '61771a646f31d3ed1e324e671fde409a9ff76e0b0754e451596f1da269e73eae'),
}


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    paths = {}
    for name in sorted({f for f, _, _ in GOLDEN}):
        paths[name] = work / f"{name}.json"
        write_fixture(name, paths[name])
    return paths


def test_table_covers_every_command_format_and_fixture():
    assert set(GOLDEN) == {(f, c, fmt)
                           for f in ("sample6", "sample14", "sample16", "ones")
                           for c in COMMANDS for fmt in FORMATS}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_cli_output_is_unchanged(key, fixture_paths):
    name, command, fmt = key
    assert run(command, fmt, fixture_paths[name]) == GOLDEN[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        print("GOLDEN = {")
        for name in ("sample6", "sample14", "sample16", "ones"):
            path = Path(work) / f"{name}.json"
            write_fixture(name, path)
            for command in COMMANDS:
                for fmt in FORMATS:
                    rc, sha = run(command, fmt, path)
                    print(f"    ({name!r}, {command!r}, {fmt!r}):\n"
                          f"        ({rc}, {sha!r}),")
        print("}")
