"""The commands print and write exactly what they did when these tables were
recorded.

GOLDEN: the exit code and the sha256 of stdout of validate, cohomology and
hochschild (to degrees 3 and 4), derivations and chainmap-check (at
degrees 1 and 2), in text and JSON, on samples 6, 14 and 16 and on the
pair whose four dimensions are 1 and whose structure is zero.  cohomology
to degree 4 runs on sample 6 and that pair only: on samples 14 and 16 it
ranks a 4617x1296 differential, seconds per run.

WRITTEN: the exit code, the sha256 of stdout and the sha256 of the written
file of semidirect, dual, lift, dendriform, extend, extract-cocycle (with
and without --section canonical), triple-to-skeletal and
skeletal-to-triple, in text and JSON, on samples 6, 14 and 16 declared
with the degree-2 and degree-3 random_rrb_cocycle of the same seed.
extract-cocycle reads the file extend wrote, skeletal-to-triple the file
triple-to-skeletal wrote.

PAIRS: the sha256 of the serialized random_rrb_pair(s), s = 0..99, which
runs the samples through every construction they are built with.

GUARDED: the whole stdout, in text and JSON, of cohomology, derivations
and chainmap-check on random_rrb_pair(1) with entry (0, 0) of R raised by
1, which breaks the relative Rota-Baxter identity: each stops at the same
check of the algebra and its coefficients and exits 1.

REJECTED: the exit code and the sha256 of stdout, in text and JSON, of each
command that takes -o or checks what it builds, on an input it rejects:
semidirect, dual, lift and dendriform on the GUARDED input; extend and
triple-to-skeletal on sample 6 with entry (0, 0) of alpha of its degree-2
and degree-3 cocycles raised by 1; extend on sample 6 with its genuine
degree-2 cocycle and entry (0, 0) of R, or entry (0, 0, 0) of the left
pairing, raised by 1, where the glued total fails and the laws of the
algebra or of its coefficients report why; extract-cocycle --section
canonical on the extension extend builds from sample 6 with the section's
s zeroed;
skeletal-to-triple on the skeletal data triple-to-skeletal builds from
sample 6 with entry (0, 0) of r0 raised by 1; and validate on the bent
cocycles and on the unsplit extension, which pins the values printed by a
failing cocycle report that does not raise and by a failing extension
check.  None of them writes a file.

AYBE: the exit code and the sha256 of stdout of validate, in text and JSON,
on three r-matrix files: E11 (x) E12 - E12 (x) E11 over the upper
triangular 2x2 matrices, a solution of the associative Yang-Baxter
equation, moved to the basis random_invertible(Random(2), 3) gives, where
its tensor and the product are dense; 1 (x) 1 over the dual numbers, which
fails at one coordinate; and a dense tensor over k[x]/(x^3), which fails
at 25 of the 27.

A change meant to keep the output byte for byte is held to it here; a
change meant to alter it records the tables again with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path
from random import Random

import pytest

from rotabaxter import cli, fileformat as ff
from rotabaxter.classification import (
    HomotopyRRBOperator, Section, build_extension, canonical_section,
    triple_to_skeletal,
)
from rotabaxter.cohomology import RRBCochain
from rotabaxter.linalg import Matrix, format_matrix
from rotabaxter.rrb import RelativeRBAlgebra, RMatrix
from rotabaxter.rrb_modules import RRBBimodule
from rotabaxter.samples import (
    bump_constants, bump_map, random_invertible, random_rrb_cocycle,
    random_rrb_pair,
)

from helpers import (
    dual_numbers, truncated_cubic, upper_triangular_r_matrix, zero_rrb,
)

COMMANDS = {
    "validate": ("validate",),
    "cohomology": ("cohomology", "--max-degree", "3"),
    "hochschild": ("hochschild", "--max-degree", "3"),
    "cohomology-4": ("cohomology", "--max-degree", "4"),
    "hochschild-4": ("hochschild", "--max-degree", "4"),
    "derivations": ("derivations",),
    "chainmap-check": ("chainmap-check",),
    "chainmap-check-2": ("chainmap-check", "--degree", "2"),
}
FORMATS = ("text", "json")
FIXTURES = ("sample6", "sample14", "sample16", "ones")
GOLDEN_KEYS = [(f, c, fmt) for f in FIXTURES for c in COMMANDS
               for fmt in FORMATS
               if not (c == "cohomology-4" and f in ("sample14", "sample16"))]


def fixture(name):
    if name == "ones":
        x = zero_rrb(1, 1)
        return x, RRBBimodule.zero(x, 1, 1)
    return random_rrb_pair(int(name.removeprefix("sample")))


def write_fixture(name, path):
    write_pair(*fixture(name), path)


def write_pair(x, b, path):
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    ff.write_path(doc, path)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def pair_digest(seed):
    x, b = random_rrb_pair(seed)
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    return sha256(ff.dump_document(doc).encode("utf-8"))


def capture(argv):
    """(exit code, stdout) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run(command, fmt, path):
    rc, stdout = capture([*COMMANDS[command], str(path), "--format", fmt])
    return rc, sha256(stdout.encode("utf-8"))


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
    ('sample6', 'cohomology-4', 'text'):
        (0, '3a406e4641fa7e88d3761081a8dc5710515eff8510b6244c7575c72830faf9e5'),
    ('sample6', 'cohomology-4', 'json'):
        (0, '42094e15bc608a55e903216df71cebb7cf4e555c0c5577d0c615bd7e05cfda87'),
    ('sample6', 'hochschild-4', 'text'):
        (0, '5da3fd3922b794a00e448ab75a403c819341bebdcb993d5915235085409575f2'),
    ('sample6', 'hochschild-4', 'json'):
        (0, '6140962116a4c5de4f71436a8ff5fb9caa09c1178337601f5d42d23c6fd84c1a'),
    ('sample6', 'derivations', 'text'):
        (0, '5a44e309029e8c6d767b2157c858e4a2d1dce474f49f545a7ef6977ea520c59b'),
    ('sample6', 'derivations', 'json'):
        (0, 'fde07693c16b69dd42e0f4226c0b35f7d2318acd717085ad4d6d77dfe976e1ba'),
    ('sample6', 'chainmap-check', 'text'):
        (0, 'b5e1e621600a1a356293ef6b50e66778d54d1ea1fca2b4479e52617f81903a3c'),
    ('sample6', 'chainmap-check', 'json'):
        (0, '61771a646f31d3ed1e324e671fde409a9ff76e0b0754e451596f1da269e73eae'),
    ('sample6', 'chainmap-check-2', 'text'):
        (0, '38fd54f638c3fddb7f24500dc72c8fdfade81f97f9d5e880b3fbcbcd038bbf18'),
    ('sample6', 'chainmap-check-2', 'json'):
        (0, '3e611125041e60eaa2cd8a24d27045f490c75bb749f6cae499363b4b2b028e7d'),
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
    ('sample14', 'hochschild-4', 'text'):
        (0, 'eacc1468563a8dfe6485214e0bd0a63777faf2efa3ac39e19492653a287b8ff2'),
    ('sample14', 'hochschild-4', 'json'):
        (0, 'f27733fc37081b76ae8ec597323fa427b22e819d95600034713337e108e911da'),
    ('sample14', 'derivations', 'text'):
        (0, 'c20783d1b8b69772b66d6fa96fa9d12af1286077e416a1706420817ebd94bb4a'),
    ('sample14', 'derivations', 'json'):
        (0, '2c3f854f1c9234cd0e4de34293e2c19e436a98eca9c2e67e3e9f686d6df7e643'),
    ('sample14', 'chainmap-check', 'text'):
        (0, 'b5e1e621600a1a356293ef6b50e66778d54d1ea1fca2b4479e52617f81903a3c'),
    ('sample14', 'chainmap-check', 'json'):
        (0, '61771a646f31d3ed1e324e671fde409a9ff76e0b0754e451596f1da269e73eae'),
    ('sample14', 'chainmap-check-2', 'text'):
        (0, '38fd54f638c3fddb7f24500dc72c8fdfade81f97f9d5e880b3fbcbcd038bbf18'),
    ('sample14', 'chainmap-check-2', 'json'):
        (0, '3e611125041e60eaa2cd8a24d27045f490c75bb749f6cae499363b4b2b028e7d'),
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
    ('sample16', 'hochschild-4', 'text'):
        (0, 'eacc1468563a8dfe6485214e0bd0a63777faf2efa3ac39e19492653a287b8ff2'),
    ('sample16', 'hochschild-4', 'json'):
        (0, 'f27733fc37081b76ae8ec597323fa427b22e819d95600034713337e108e911da'),
    ('sample16', 'derivations', 'text'):
        (0, 'fe9659d14810206c31502bb42c179f150b41f2f325a317e37366e0aaeccf9b9f'),
    ('sample16', 'derivations', 'json'):
        (0, 'c02a749ef37684b1962e3297521d041f9a9c98f186b345048d9c25b51b808f76'),
    ('sample16', 'chainmap-check', 'text'):
        (0, 'b5e1e621600a1a356293ef6b50e66778d54d1ea1fca2b4479e52617f81903a3c'),
    ('sample16', 'chainmap-check', 'json'):
        (0, '61771a646f31d3ed1e324e671fde409a9ff76e0b0754e451596f1da269e73eae'),
    ('sample16', 'chainmap-check-2', 'text'):
        (0, '38fd54f638c3fddb7f24500dc72c8fdfade81f97f9d5e880b3fbcbcd038bbf18'),
    ('sample16', 'chainmap-check-2', 'json'):
        (0, '3e611125041e60eaa2cd8a24d27045f490c75bb749f6cae499363b4b2b028e7d'),
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
    ('ones', 'cohomology-4', 'text'):
        (0, '9b4c1f7b617403bdbf226a27f25ff917b3a34a173b055aa877a191468c28c71f'),
    ('ones', 'cohomology-4', 'json'):
        (0, '8c32c163c7f9100205d007b3daa212b33bba4c9808d996bb2eb866b391c68e3c'),
    ('ones', 'hochschild-4', 'text'):
        (0, 'a71686250b7c0c74df7a56da4053651bc2076d40a6acb76031fafe9a15d48f06'),
    ('ones', 'hochschild-4', 'json'):
        (0, '61b28a76027a37f8ec1e7177b70e2e9097ce6c29b906c6152c5e771efd7f74d6'),
    ('ones', 'derivations', 'text'):
        (0, '8639616c304eaf9a3da692b432a9c713f274423c75763a30bcf6f9ab089a47c8'),
    ('ones', 'derivations', 'json'):
        (0, '5ce4d1b7312c316e68a28e164287e1386e3ac591f94b08ffe8a050ef52ec647f'),
    ('ones', 'chainmap-check', 'text'):
        (0, 'b5e1e621600a1a356293ef6b50e66778d54d1ea1fca2b4479e52617f81903a3c'),
    ('ones', 'chainmap-check', 'json'):
        (0, '61771a646f31d3ed1e324e671fde409a9ff76e0b0754e451596f1da269e73eae'),
    ('ones', 'chainmap-check-2', 'text'):
        (0, '38fd54f638c3fddb7f24500dc72c8fdfade81f97f9d5e880b3fbcbcd038bbf18'),
    ('ones', 'chainmap-check-2', 'json'):
        (0, '3e611125041e60eaa2cd8a24d27045f490c75bb749f6cae499363b4b2b028e7d'),
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
    assert set(GOLDEN) == set(GOLDEN_KEYS)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_cli_output_is_unchanged(key, fixture_paths):
    name, command, fmt = key
    assert run(command, fmt, fixture_paths[name]) == GOLDEN[key]

# commands that write a file (out.json) or read one another command wrote;
# every *.json argument names a file in the fixture's directory
WRITERS = {
    "semidirect": ("semidirect", "fixture.json", "-o", "out.json"),
    "dual": ("dual", "fixture.json", "-o", "out.json"),
    "lift": ("lift", "fixture.json", "-o", "out.json"),
    "dendriform": ("dendriform", "fixture.json"),
    "extend": ("extend", "fixture.json", "--cocycle", "C2", "-o", "out.json"),
    "extract-cocycle": ("extract-cocycle", "extension.json"),
    "extract-cocycle-canonical": ("extract-cocycle", "extension.json",
                                  "--section", "canonical"),
    "triple-to-skeletal": ("triple-to-skeletal", "fixture.json",
                           "-o", "out.json"),
    "skeletal-to-triple": ("skeletal-to-triple", "skeletal.json",
                           "-o", "out.json"),
}
WRITER_FIXTURES = ("sample6", "sample14", "sample16")


def write_cocycle_fixture(name, path):
    """The sample with its degree-2 and degree-3 random_rrb_cocycle of the
    same seed, as C2 and C3 (either is left out when there is none)."""
    seed = int(name.removeprefix("sample"))
    x, b = random_rrb_pair(seed)
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    for k in (2, 3):
        c = random_rrb_cocycle(seed, x, b, k)
        if c is not None:
            ff.declare_cocycle(doc, f"C{k}", c, xn, bn, asp, msp, bsp, fsp)
    ff.write_path(doc, path)


def run_writer(words, fmt, work):
    """(exit code, sha256 of stdout, sha256 of out.json or None) of the
    command line words; the directory is cut from the paths stdout names."""
    written = work / "out.json"
    written.unlink(missing_ok=True)
    argv = [str(work / a) if a.endswith(".json") else a for a in words]
    rc, stdout = capture([*argv, "--format", fmt])
    stdout = stdout.replace(f"{work}/", "")
    return (rc, sha256(stdout.encode("utf-8")),
            sha256(written.read_bytes()) if written.exists() else None)


def prepare_writer_fixture(name, work):
    """fixture.json, and the extension.json and skeletal.json that extend
    and triple-to-skeletal write from it."""
    work.mkdir()
    write_cocycle_fixture(name, work / "fixture.json")
    for command, made in (("extend", "extension.json"),
                          ("triple-to-skeletal", "skeletal.json")):
        run_writer(WRITERS[command], "text", work)
        if (work / "out.json").exists():
            (work / "out.json").rename(work / made)
    return work


# (fixture, command, format) -> (exit code, sha256 of stdout,
#                                sha256 of the written file or None)
WRITTEN = {
    ('sample6', 'semidirect', 'text'):
        (0, '758af7d10736b9a7f28e130d8acbd52565f89053f2e70e8d23e0b91e754e75fb',
         'd2684cea2a35531da9866d198b542ed7a94ad7129397a9b509617e5a865d5056'),
    ('sample6', 'semidirect', 'json'):
        (0, 'cf0ab3d10ec06a4c6ce26cb8399f243856f13a0797e01eeced2fea0df5739b90',
         'd2684cea2a35531da9866d198b542ed7a94ad7129397a9b509617e5a865d5056'),
    ('sample6', 'dual', 'text'):
        (0, 'bbc3ab025b63e9f959673405dc20fd810032a6a9c2c77f3f67a048f2ed5afe2c',
         '3c8048fbf1d9f66cd966cc869c6300df1ed238b15092530ad5d36fd0be9f0241'),
    ('sample6', 'dual', 'json'):
        (0, '91a989ab66181fa38bd5d6c46c29238dd395e0c3bd90c3039c6b4639444ea666',
         '3c8048fbf1d9f66cd966cc869c6300df1ed238b15092530ad5d36fd0be9f0241'),
    ('sample6', 'lift', 'text'):
        (0, '4962aff209b11d3418948f65c5a6cf7e1cb72fb555bc15317840ca019d59f878',
         'c3c1366d054dc2bed65a54f0119c3faef4edf2c9da7b3e6af0589fc7f8f0d813'),
    ('sample6', 'lift', 'json'):
        (0, 'c5cbfe93d958071a431ac940917472ddb2675a49e3269912af2ae375b8d3e0b3',
         'c3c1366d054dc2bed65a54f0119c3faef4edf2c9da7b3e6af0589fc7f8f0d813'),
    ('sample6', 'dendriform', 'text'):
        (0, '37a560e84581b120d5dd76f7b0182ffd3b842b54aa716d794efdcaa7d9336031',
         None),
    ('sample6', 'dendriform', 'json'):
        (0, 'b8b914de07a2510819a20ba302491172db92583f2eb237cdca983c8bccd6e77b',
         None),
    ('sample6', 'extend', 'text'):
        (0, '23ed0d6f94c1aa7661fee0cc9d68985aa4a71248857215e4efc076e3ddcdfe42',
         'c021093d99210bf898c1f26652beb8e15ba245627da50d4acee3978270609f86'),
    ('sample6', 'extend', 'json'):
        (0, '4a2d51051ebf22348b5ddf689575ab908b3d66650d75798667a6578a62ce9dbb',
         'c021093d99210bf898c1f26652beb8e15ba245627da50d4acee3978270609f86'),
    ('sample6', 'extract-cocycle', 'text'):
        (0, '8025b02f50827a9279c98686ef17c1987cfb9ec3122b7c8cf565102936871681',
         None),
    ('sample6', 'extract-cocycle', 'json'):
        (0, '9c8081d17467812ca6d559507650add20a38c5e793853194b170bd77a4fccddb',
         None),
    ('sample6', 'extract-cocycle-canonical', 'text'):
        (0, '8025b02f50827a9279c98686ef17c1987cfb9ec3122b7c8cf565102936871681',
         None),
    ('sample6', 'extract-cocycle-canonical', 'json'):
        (0, '9c8081d17467812ca6d559507650add20a38c5e793853194b170bd77a4fccddb',
         None),
    ('sample6', 'triple-to-skeletal', 'text'):
        (0, '0497838ae03a1d9bcfae1f4d25f90830692746b72ed2f8ddb087343ce17b956f',
         'd753b288aa8669e7eec73d8f082f6eac40f25be9d0695b089dd0b307f839e6f2'),
    ('sample6', 'triple-to-skeletal', 'json'):
        (0, 'ba35e3685b9339622d75e5beeb6ce12ef5f7a25376ebc1003a81916df96b2c3f',
         'd753b288aa8669e7eec73d8f082f6eac40f25be9d0695b089dd0b307f839e6f2'),
    ('sample6', 'skeletal-to-triple', 'text'):
        (0, '6950b16e428a44a43d1c552aaf0ab71ea7d4841ad08163b90c5613997f841e2c',
         '1cbe38ae2225304eb607e1b979e318982ba068397e2ac314a9f8d8817c78047c'),
    ('sample6', 'skeletal-to-triple', 'json'):
        (0, 'd632fcf6439e81d43ee8fde4edd4ab2d6097769b72dc6106ca319f79156d586b',
         '1cbe38ae2225304eb607e1b979e318982ba068397e2ac314a9f8d8817c78047c'),
    ('sample14', 'semidirect', 'text'):
        (0, '4bb4aeecc75a916176bfb4a83ba75d0f6a7f751302d245283d749ade05f20a0b',
         '8407656de2e7a186aba0b365a438472e7ac358c5457d4637d7a6f4f988bf5beb'),
    ('sample14', 'semidirect', 'json'):
        (0, 'a634a157348b9e8429d32e48a54adcc5900ef30f87ba1e716802907d80351fb4',
         '8407656de2e7a186aba0b365a438472e7ac358c5457d4637d7a6f4f988bf5beb'),
    ('sample14', 'dual', 'text'):
        (0, '1726669e613e34d3881630055b876fec07f435b90704c2b6da0f5db4a0dd2ac0',
         '7fe6d00dbd3bccba1ff8baf8bdb5d61406ca40189ee74cb6913cf0172e7400f8'),
    ('sample14', 'dual', 'json'):
        (0, '63d5218e6032f78d5e67f43c54844d89cb054b12ddc9d44245aa74d6b6336b52',
         '7fe6d00dbd3bccba1ff8baf8bdb5d61406ca40189ee74cb6913cf0172e7400f8'),
    ('sample14', 'lift', 'text'):
        (0, '30529728bc67a446c0b281dbdc827accf6441888028a22b2dcdb33a006b86f75',
         '7abdc186c99f4eea66a80273391ae89f89c4153802a4e84a93b518a4f92ced68'),
    ('sample14', 'lift', 'json'):
        (0, '386722c71f86488f7ba881680e89806fcfbd4cb831fd034be7482df3f8c18619',
         '7abdc186c99f4eea66a80273391ae89f89c4153802a4e84a93b518a4f92ced68'),
    ('sample14', 'dendriform', 'text'):
        (0, '37a560e84581b120d5dd76f7b0182ffd3b842b54aa716d794efdcaa7d9336031',
         None),
    ('sample14', 'dendriform', 'json'):
        (0, 'b8b914de07a2510819a20ba302491172db92583f2eb237cdca983c8bccd6e77b',
         None),
    ('sample14', 'extend', 'text'):
        (0, 'a246b07df9191506c8bd896a47846e096aa80dfd827a647c6efba3f806fedfe5',
         '2ed539a98cda54d99a74c439f6a35afefdb1b676d45b11176fe1536635804cd3'),
    ('sample14', 'extend', 'json'):
        (0, '49de8c42d2e17eec45edb90a9271e7f9bb62f3d5b6a2a1b46b183c3204b07c16',
         '2ed539a98cda54d99a74c439f6a35afefdb1b676d45b11176fe1536635804cd3'),
    ('sample14', 'extract-cocycle', 'text'):
        (0, 'f325bf3f904fec0c74280a110936c00ea106d5962673c3a87feb4e0f653d0797',
         None),
    ('sample14', 'extract-cocycle', 'json'):
        (0, '399b0a9f281d6e9100ce167503b67b562cdbc8437009abe7e4e7050bb33df5ef',
         None),
    ('sample14', 'extract-cocycle-canonical', 'text'):
        (0, 'f325bf3f904fec0c74280a110936c00ea106d5962673c3a87feb4e0f653d0797',
         None),
    ('sample14', 'extract-cocycle-canonical', 'json'):
        (0, '399b0a9f281d6e9100ce167503b67b562cdbc8437009abe7e4e7050bb33df5ef',
         None),
    ('sample14', 'triple-to-skeletal', 'text'):
        (0, '45d24c6ba614bba51fa786985b78a4dcc1e616d816dd5b3f2fba369a9ba1e043',
         '0b93e9f0992193908ad6ca31bcba32fd6aab4bda9f3130bc232fe0b86e4d0db0'),
    ('sample14', 'triple-to-skeletal', 'json'):
        (0, 'de14abf1b6e96441b66b02fb642841782baefb47c36d95a27501a72b8aa95b22',
         '0b93e9f0992193908ad6ca31bcba32fd6aab4bda9f3130bc232fe0b86e4d0db0'),
    ('sample14', 'skeletal-to-triple', 'text'):
        (0, 'ac90cba8e926233f9932092669c18be087d119016c941ed252a3521d28edd5a1',
         '86ecbcb9bc57fc7ccc4c10f5d364bd51711d974f7385cfa2f5faa1a36adb8e25'),
    ('sample14', 'skeletal-to-triple', 'json'):
        (0, 'a3746073bdcd1eddba6949adb782b8573eb76efc76b2ba639ef15418a48e4522',
         '86ecbcb9bc57fc7ccc4c10f5d364bd51711d974f7385cfa2f5faa1a36adb8e25'),
    ('sample16', 'semidirect', 'text'):
        (0, '4bb4aeecc75a916176bfb4a83ba75d0f6a7f751302d245283d749ade05f20a0b',
         '6b6ea264f3f6bb2d34c14b96ad0c1e08a4ac318c2608a2eed3d733c13b450342'),
    ('sample16', 'semidirect', 'json'):
        (0, 'a634a157348b9e8429d32e48a54adcc5900ef30f87ba1e716802907d80351fb4',
         '6b6ea264f3f6bb2d34c14b96ad0c1e08a4ac318c2608a2eed3d733c13b450342'),
    ('sample16', 'dual', 'text'):
        (0, '1726669e613e34d3881630055b876fec07f435b90704c2b6da0f5db4a0dd2ac0',
         '2b535675b054c3d0570bb91a18d70b0212909d980bf16d397d1c04c9a4378db5'),
    ('sample16', 'dual', 'json'):
        (0, '63d5218e6032f78d5e67f43c54844d89cb054b12ddc9d44245aa74d6b6336b52',
         '2b535675b054c3d0570bb91a18d70b0212909d980bf16d397d1c04c9a4378db5'),
    ('sample16', 'lift', 'text'):
        (0, '30529728bc67a446c0b281dbdc827accf6441888028a22b2dcdb33a006b86f75',
         'd380fba0ce77d6ce71ae06c11fdde36d36442e1bbdaa6fcbd9cec9482bfbd50a'),
    ('sample16', 'lift', 'json'):
        (0, '386722c71f86488f7ba881680e89806fcfbd4cb831fd034be7482df3f8c18619',
         'd380fba0ce77d6ce71ae06c11fdde36d36442e1bbdaa6fcbd9cec9482bfbd50a'),
    ('sample16', 'dendriform', 'text'):
        (0, '37a560e84581b120d5dd76f7b0182ffd3b842b54aa716d794efdcaa7d9336031',
         None),
    ('sample16', 'dendriform', 'json'):
        (0, 'b8b914de07a2510819a20ba302491172db92583f2eb237cdca983c8bccd6e77b',
         None),
    ('sample16', 'extend', 'text'):
        (0, 'a246b07df9191506c8bd896a47846e096aa80dfd827a647c6efba3f806fedfe5',
         '6f123d67ddd7d6bd00de238e5e6a66bf781422cd7e3f103fed7e49038bf85446'),
    ('sample16', 'extend', 'json'):
        (0, '49de8c42d2e17eec45edb90a9271e7f9bb62f3d5b6a2a1b46b183c3204b07c16',
         '6f123d67ddd7d6bd00de238e5e6a66bf781422cd7e3f103fed7e49038bf85446'),
    ('sample16', 'extract-cocycle', 'text'):
        (0, '708f6623ea9673402123ef1b5a3486cf919f33135ef48f7e3961c7502be876a8',
         None),
    ('sample16', 'extract-cocycle', 'json'):
        (0, '058a219b55d038472545e207afb660e3c20486e93a560c29ab11cd8ec6db75b9',
         None),
    ('sample16', 'extract-cocycle-canonical', 'text'):
        (0, '708f6623ea9673402123ef1b5a3486cf919f33135ef48f7e3961c7502be876a8',
         None),
    ('sample16', 'extract-cocycle-canonical', 'json'):
        (0, '058a219b55d038472545e207afb660e3c20486e93a560c29ab11cd8ec6db75b9',
         None),
    ('sample16', 'triple-to-skeletal', 'text'):
        (0, '45d24c6ba614bba51fa786985b78a4dcc1e616d816dd5b3f2fba369a9ba1e043',
         '320085d743b0164be4ccabb58733565618835dc1839a57915054f2d9935e175d'),
    ('sample16', 'triple-to-skeletal', 'json'):
        (0, 'de14abf1b6e96441b66b02fb642841782baefb47c36d95a27501a72b8aa95b22',
         '320085d743b0164be4ccabb58733565618835dc1839a57915054f2d9935e175d'),
    ('sample16', 'skeletal-to-triple', 'text'):
        (0, 'ac90cba8e926233f9932092669c18be087d119016c941ed252a3521d28edd5a1',
         'd8bd5294a42dded1c16de1989d3f4aac9f2a3a6a57a5d4ff4e8f938ec8bddf63'),
    ('sample16', 'skeletal-to-triple', 'json'):
        (0, 'a3746073bdcd1eddba6949adb782b8573eb76efc76b2ba639ef15418a48e4522',
         'd8bd5294a42dded1c16de1989d3f4aac9f2a3a6a57a5d4ff4e8f938ec8bddf63'),
}

# seed -> sha256 of random_rrb_pair(seed) declared as X and B
PAIRS = {
    0: '8a3a8106a1862c850e840372893ddd9028f75e466441493de257ff8301c50408',
    1: '4948f31378d12e6802f5bc1322a256570be328f61f5ddee02748e3b2cd78b2bf',
    2: 'c1097ee6923ecf1affcc5d9a1a2bd258a2190587829c1d89dcf5dbd23c17327d',
    3: 'ad884519b3b559917c65d7c701dcbe32a5896e16b3e06927a5eb2caef1c4c4b0',
    4: 'f2a3094e946a1e63da973506732460d6fdac75c58c0b6f00a10180dd02ec800c',
    5: '7a4eead9a80c8d5f30ae23394639fe58b915a58ae684949ab51e00e473a822c7',
    6: '49cf9b13cb3ebffc32be0040a9a4b7e165e045cf7bc08c242278e2ecf23afb64',
    7: 'fb9dcc1a65fecd22d0e76232d5bf8f897127e89f365c36ad5498f5951d65d4c5',
    8: 'b503f38459d6c05f3ec76f10cde2b02fed6823cc4baf06a7df99c20fd7da6c52',
    9: '431746312cbdb0659d2a27f1d6bf6ce7de4e8f6b863146329c4c5d1d6e4fa3fa',
    10: '98d8a0846bff6560852ea22271297749775af57b5fb2ef0d6de7555831737ab6',
    11: '012db0dc879365a5728d32fd58a576c275967c2b52021ff7cc92fd4cf983a092',
    12: 'c58d8319d386bc7df147aa598ec0438c360bc931cdd25410d7869fe320e6a165',
    13: '263765d6558fd1d611f21e94abe877d830fbc28b79c4554e44253cc40b574435',
    14: '8e0f5259924f9ea630a8e3271b146f990d3e73c05f315ef25587b5f834098cc4',
    15: 'fa287aa40263634fb29af0fdcbe027278f01696150214db46f0d6b27e9f6abca',
    16: '6fcab2e6e266adf0582b9cd70aef4077520eecd3676df240344ca8f86f2d7e11',
    17: '9fbf1e50ef09d9545aa8a32550604b2fe0d933bf07e8c7d1c8f558960a9695dc',
    18: '7b7ba3c5109ac780595ff32b3eda2b848b706d5410747c9a65554707721d2990',
    19: '144e45a44b173ba2568e68aacb439c220a68b2802b9d46c3270d8223b5ee6261',
    20: 'f24ff8c30ff7b42e1a484a6b1f0f5c00270cfb5f31d9636a732ab5bb8b69b429',
    21: 'f75a4a2ad79374d720dfaac106074878239c46f8a15a7fe984e97f2b7d02aea2',
    22: '10d5a5723bacab1a1fc186115dc58bc50d26d5bd467b15fb801e2ef4f793a191',
    23: '3ffbd0f701436e746afbffc324338983742386658f4500d1f52981a145a1ef74',
    24: '293c28791fd3600e400d7c148a75d07f304d676fe347a353e8c13d7c9e4ccf33',
    25: 'c2a184a3e9afef5df1e6baa7d73b09ecf6dfede1fda9152dab92a78ae168c7e8',
    26: 'cd9b42b76d38338cca166ad3e692c601e3c76e61591c13fb08edc4c12aba2a40',
    27: '833674a064db90f09722f4c81a0a89547d426ff91b6ffefda2c3fc59cac93796',
    28: '7ba72557b230788eb7388c64b6732512ab696697971ec3904d0049035302724a',
    29: '0982e51bc49628278907c036c5f00ca399716f8ad0ea4965f0bcffadead4e616',
    30: '1f2c509f298286ebe813bce1874ef163802b841e34a4ce64cfce432a31a52561',
    31: '804876224eba04b512047df4753a03241228501200b8a97b4a4ba8a31bb65c05',
    32: '8d48ff920a31b4a85e4f58bf95fd4ace1584c4186ffc9d864d6c77110739f489',
    33: 'e898545f8ab244dbbb0cf2c60ca559dbae3ca84cd07cb4958f8719989f7ed2c6',
    34: '0dcadbec0ca8d3d0649822d02287a458456e5f01d04519ca8fda35c8ce3d8703',
    35: '05273fc57f73d46cf63196f85f8736d3ed2950eab133abec00a5a80a6c62b4c8',
    36: 'a55720a5c25ac0dbb08a2d25e57f544999bd2e9fc3e56c4447850e3d9f4b78eb',
    37: 'a7151b551375085400c114c7bbceaaed0d2fe800058d55f63963fbd06c3613c6',
    38: '9eac62e382974dd7c4951a7d3f33135a73c285c363af9bfa1300405ce83e64d7',
    39: 'f321be0f571c415cf98f4a6def5a9e2245a52665b2fcd95255414002d8a472d7',
    40: 'ff530989051145a0406ebbf82f83390469628bcbc410710da244f76f4c2edeb8',
    41: 'a03fa69fa771e5dc57a060001607f73c52db0259ffe7b8a34384d06d8f14f9ba',
    42: '2ba3f217dacfa7a0ece159a1bf1ef0788215d83b85e809125f6fe4a1e8cfb9ef',
    43: '8474520a11ae034b1a631b91350a6de8487cb11f938b5ed23ed24efede1e0d1b',
    44: '0e712862caa111a3fec7d4f8302e20a6d0c8bda3480c4e86b6dd8555b910eada',
    45: 'ae3596ce426fa6319c6caabd3b65149e03b089ca76d4a66c0b51c7e48246c472',
    46: '88ad591767a3545bb195dc498fb5cedae194d26d42d6a62f71e1c5f5f046c205',
    47: 'e81aebf01fdcecf295d602229c4828a75d99ec4370b03396569f6d215eb35c00',
    48: 'dde2abb84f05b4bb11cfb0b5a4e5430e459f78e5acbb9baa45527b10e198d442',
    49: 'd262c5dd6870bf1b4feb2aaec9e550ee091fb26008ca1acbbeeb498d1a37d379',
    50: '99b1b446672bff8856a000c5ee1afcd7aef4e305d27140653a81252246e4e8c6',
    51: 'abcb459349e87a60d336ac4f812f7524815e0d623ab744284b5f7d0ac6ebb027',
    52: 'f83ea257a7f649884d526f266b443a5fd3857751aaf97e34a37fe34dc33d5ed4',
    53: '5ce80c44cf78d686cd9846badbc409c4f2c19b5fa9814fb6cc6badba7fbdc3a9',
    54: '370dbf787b0a4118d3f08788980cca78b3efa00d7464b46777a9102b7f05d3b7',
    55: 'a751e0585839400b34d477347e648f9721894eca031fa3a52d367857c74a04b6',
    56: 'c8a56a79e7a35362725189a5370e6e4f4975580178575596813f53d2c2e59875',
    57: '74dcf9f9839ad32eb49812747d1a87b6a7d47ecd06afaa97258cd32aeb97e42d',
    58: '345778cde9881cb96c4d17cb2cd83a3699e3ac5da7d0ff6b4fe84f746dc5044f',
    59: 'a1aa99cd78ca5e8289faca560cd8551545e37367dfa3f1c4854f44ba8a7d8d2c',
    60: '6797bb940ac559aafe4d865ef09fa46101d1542ec60ed6d5fe5fa03bca6c9711',
    61: '5c835cdb63c574208013c9890813351c4285e6ec5c3251ef8fd84bfa2cda7629',
    62: '2fe919ee309b1e863ccccd5831628af491e7cfcd05ce4aa45e1f35ff9ce4c5f2',
    63: '4f7ec7ab5e32559fc0390ce9ff7b7706d036a559906fe2afafbb07129df7840f',
    64: '23bdca10e2b9b04e2c71af42c185c862ebef670ac19769d1b05865ee80d7ebc5',
    65: '53df8a925228f7f0204afac42628ef2f6d80620ba258954f04a266c74021545d',
    66: 'b6e900f83fd1f17f39d32047409af4d72f95814fc46a78898747ecfa9c88d03f',
    67: '4bb0ebbff0cd759239732d01c9b6c73571db9828d854c168c6eb9b774b0ad0eb',
    68: '341bf09666082426e5150dbdbdd9fa89d8c3b878fa99c55af2666731a5c3e27c',
    69: 'c516050c049fb77916bfabb8fef0701fc34430952949a7300eb951383ef6f173',
    70: 'e9b435d4a11c5d982892d4814e14a13a4994778e373a13bde3ed95aed56e7963',
    71: '7696e9410393d786a98877298a46c5ca58ec0ebec03e0238abf46ac26369d389',
    72: '493257212cb63b00d84553371b8f4a0d5ac1da624bd0b9a37859f181664fd190',
    73: '80db7201232dfe39303c4e9eb621dc3c68bafcf0df86f753905b07fa831a1950',
    74: '4dae071ff71c47cc247d2b17bca3f25889929f5a9ef3a28afc8b6a9b285384ca',
    75: '370e3d2df5f134cad52bce59a215ced5a2b0e18311be37635e067b792127f9ae',
    76: 'a10f7eeff36b8b60974098f93ad880929fdb7bbcac294cb67388434a4b0368f0',
    77: '355b5d59df14603693758af9e754212dc7dda205806fc2461ae2d20abb010364',
    78: 'b2feee68dd152bb8a97b991076575c0d93d068959992b6a9ecb38b3d0f5f56a6',
    79: '7e4ed6635803844952297884f39d09a2c00e7e5a56e01c84d515bf84b395f44e',
    80: 'b947f50450fd6652616adb73a902426f035d5458a6a39650c6d7df2296285c1a',
    81: 'fc9d64c22570deb129577ff630653ce4b70f1669925a44d6f00a17a5d8efd368',
    82: 'd9ad9ac74952f6f65633ae5d4c5f87e0819dc42477882bf417d7c7ffcf1252d6',
    83: 'c51a2703f1cdd634c3f6e8bb2630f01787e387c44291c97d23b0c9d9de8f1b10',
    84: '30d4823bdb8c85b9bc29543617fd605f9de9b62cda962926295880f554d6d0ad',
    85: '526c596463c3f065118b61016665fb1753104d0a8da5a80ba25b9b4123baae24',
    86: 'ad82a9b9e29a5196cef9831a23013a02d588c8697da1e44ad9df92e498855121',
    87: 'b19edcf5ae334e30e47caed2dba43255538313cf3e4de79422b5fe887f7aeec6',
    88: '89ee11a956e233782b82f4a036514b657fb09bd130c6941e74b9b81f6844573f',
    89: 'f17b79af53b3c2cfb412cd09dd641c2886c37f027c0d555aa83095ba857d3b9f',
    90: '1b3881929615ea7cc45ba61301b4c29f7aee9ef576773599b196a56c42f3874b',
    91: 'ba268f250f2131eff80d3bf0f400bcd079fde708b2b352341aa0ee8ff0486a01',
    92: '143bc6886e6df14b8f3790eba79a3f555edf2031eb6eaa6ae3e51841d11503ad',
    93: '4fe8621b392f2dbe398cba2509d950d0896c204c8b7a0e67f53798bccf7cf550',
    94: '31d5b4b766922891ec3fb673a41da6936840d4df88da1abdc68709b9740513ab',
    95: '236caa9a562fadbd20a212ce6f960945a8a223472f65ee49fcfe7ea3b667deb7',
    96: '0f778a01e7b3b6c031299f580ccb64f98e1dcd28d7952488821239aad4483781',
    97: '8c3e5072ce5bd0c7a7e7c4443c27f98dcb49e8032f96fafc319728998f64849f',
    98: '9b713f35bc2601546e903ada1159a4490d97581dacc117bb1e38131d0131f399',
    99: '2b3470dd1ac6293ba248c53a5549e60f53e0c33407c5b2c918cc5418c28cfa42',
}


@pytest.fixture(scope="module")
def writer_dirs(tmp_path_factory):
    work = tmp_path_factory.mktemp("written")
    return {name: prepare_writer_fixture(name, work / name)
            for name in WRITER_FIXTURES}


def test_written_table_covers_every_command_format_and_fixture():
    assert set(WRITTEN) == {(f, c, fmt) for f in WRITER_FIXTURES
                            for c in WRITERS for fmt in FORMATS}


@pytest.mark.parametrize("key", sorted(WRITTEN), ids="-".join)
def test_written_output_is_unchanged(key, writer_dirs):
    name, command, fmt = key
    assert run_writer(WRITERS[command], fmt, writer_dirs[name]) == \
        WRITTEN[key]


@pytest.mark.parametrize("key", sorted(k for k in WRITTEN
                                     if k[1] == "skeletal-to-triple"),
                         ids="-".join)
def test_skeletal_to_triple_passes_without_the_skeletal_checks(
        key, writer_dirs, monkeypatch):
    # a passing input is decided by the check of the triple it flattens
    # to: the skeletal law checks run only to report a failure
    def refused(*_):
        raise AssertionError("a skeletal law check ran")

    for name in ("check_two_term_ainfty", "check_ainfty_bimodule",
                 "check_homotopy_rrb_operator"):
        monkeypatch.setattr(cli, name, refused)
    name, command, fmt = key
    assert run_writer(WRITERS[command], fmt, writer_dirs[name]) == \
        WRITTEN[key]


def test_serialized_pairs_are_unchanged():
    assert {s: pair_digest(s) for s in range(100)} == PAIRS


GUARDED = ("cohomology", "derivations", "chainmap-check")
GUARD_TEXT = ("X (rrb_algebra): FAIL (1 violations)\n"
              "  rrb_identity at (0, 0): lhs=(1) rhs=(2)\n"
              "B (coefficients): pass\n")
# the command's name stands for COMMAND
GUARD_JSON = """\
{
  "checks": [
    {
      "name": "X (rrb_algebra)",
      "ok": false,
      "violations": [
        {
          "args": [
            0,
            0
          ],
          "law": "rrb_identity",
          "lhs": [
            "1"
          ],
          "rhs": [
            "2"
          ]
        }
      ]
    },
    {
      "name": "B (coefficients)",
      "ok": true,
      "violations": []
    }
  ],
  "command": "COMMAND",
  "ok": false
}
"""


def write_broken_pair(path):
    x, b = random_rrb_pair(1)
    x = RelativeRBAlgebra(x.algebra, x.module, bump_map(x.rop, (0, 0)))
    write_pair(x, b, path)


@pytest.fixture(scope="module")
def broken_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("guarded") / "bad.json"
    write_broken_pair(path)
    return path


@pytest.mark.parametrize("command", GUARDED)
def test_coefficient_guard_output_is_unchanged(command, broken_path):
    assert capture([command, str(broken_path)]) == (1, GUARD_TEXT)
    assert capture([command, str(broken_path), "--format", "json"]) == \
        (1, GUARD_JSON.replace("COMMAND", command))


# commands on inputs they reject; every *.json argument names a file
# prepare_rejected_fixtures writes, and none of them may write out.json
REJECTS = {
    "semidirect": ("semidirect", "bad.json", "-o", "out.json"),
    "dual": ("dual", "bad.json", "-o", "out.json"),
    "lift": ("lift", "bad.json", "-o", "out.json"),
    "dendriform": ("dendriform", "bad.json"),
    "extend": ("extend", "bent.json", "--cocycle", "C2", "-o", "out.json"),
    "extend-bent-operator": ("extend", "bent-operator.json", "--cocycle",
                             "C2", "-o", "out.json"),
    "extend-bent-pairing": ("extend", "bent-pairing.json", "--cocycle", "C2",
                            "-o", "out.json"),
    "triple-to-skeletal": ("triple-to-skeletal", "bent.json",
                           "-o", "out.json"),
    "extract-cocycle": ("extract-cocycle", "unsplit.json",
                        "--section", "canonical"),
    "skeletal-to-triple": ("skeletal-to-triple", "bent-skeletal.json",
                           "-o", "out.json"),
    "validate-bent": ("validate", "bent.json"),
    "validate-unsplit": ("validate", "unsplit.json"),
}


def prepare_rejected_fixtures(work):
    """bad.json (the GUARDED input), and from sample 6: bent.json with
    alpha (0, 0) of C2 and C3 raised by 1, bent-operator.json and
    bent-pairing.json with its genuine C2 and R (0, 0) or the left pairing's
    (0, 0, 0) raised by 1, unsplit.json with its extension
    and a zero s as section 'canonical', and bent-skeletal.json with its
    skeletal data and r0 (0, 0) raised by 1."""
    work.mkdir()
    write_broken_pair(work / "bad.json")
    x, b = random_rrb_pair(6)
    c2, c3 = (random_rrb_cocycle(6, x, b, k) for k in (2, 3))
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    for c in (c2, c3):
        bent = RRBCochain(c.degree, bump_map(c.alpha, (0, 0)), c.beta,
                          c.gamma)
        ff.declare_cocycle(doc, f"C{c.degree}", bent, xn, bn, asp, msp,
                           bsp, fsp)
    ff.write_path(doc, work / "bent.json")
    bent_x = RelativeRBAlgebra(x.algebra, x.module, bump_map(x.rop, (0, 0)))
    bent_b = RRBBimodule(x, b.base, b.fiber, b.sop,
                         bump_constants(b.left_pair, (0, 0, 0)), b.right_pair)
    for name, (xx, bb) in (("bent-operator", (bent_x, b)),
                           ("bent-pairing", (x, bent_b))):
        doc = ff.new_document()
        xn, asp, msp = ff.declare_rrb_algebra(doc, "X", xx)
        bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", bb, xn, asp, msp)
        ff.declare_cocycle(doc, "C2", c2, xn, bn, asp, msp, bsp, fsp)
        ff.write_path(doc, work / f"{name}.json")
    e = build_extension(x, b, c2)
    sec = canonical_section(e)
    doc = ff.new_document()
    ff.declare(doc, "extension", "E", e, sections={
        "canonical": Section(Matrix(sec.s.rows, sec.s.cols), sec.sbar)})
    ff.write_path(doc, work / "unsplit.json")
    a, m, r = triple_to_skeletal(x, b, c3)
    doc = ff.new_document()
    ff.declare(doc, "two_term_ainfty", "A", a)
    ff.declare(doc, "ainfty_bimodule", "M", m, over="A")
    ff.declare(
        doc, "homotopy_rrb", "R",
        HomotopyRRBOperator(bump_map(r.r0, (0, 0)), r.r1, r.r2),
        algebra="A", module="M")
    ff.write_path(doc, work / "bent-skeletal.json")
    return work


# (command, format) -> (exit code, sha256 of stdout)
REJECTED = {
    ('semidirect', 'text'):
        (1, '072a1935997fa4170ac2b98b7aaedc2aa00df4dc4e72ef43ab00907f698bb006'),
    ('semidirect', 'json'):
        (1, 'ca2e0ffe069de849cb137964646a408ec1af5429ca0f2673bc478e786c908e9b'),
    ('dual', 'text'):
        (1, '072a1935997fa4170ac2b98b7aaedc2aa00df4dc4e72ef43ab00907f698bb006'),
    ('dual', 'json'):
        (1, '7b52ccc89ecf8f8218ff3471c7b20b23068245f4de0d3e0be004a45e77764454'),
    ('lift', 'text'):
        (1, '072a1935997fa4170ac2b98b7aaedc2aa00df4dc4e72ef43ab00907f698bb006'),
    ('lift', 'json'):
        (1, 'b1a4f3150eba6492c2eaf30ac8b9d8d2d6e9cabaa7422e5b60d491b4bc44696c'),
    ('dendriform', 'text'):
        (1, '072a1935997fa4170ac2b98b7aaedc2aa00df4dc4e72ef43ab00907f698bb006'),
    ('dendriform', 'json'):
        (1, 'e54cf19d1104671ff15f6b3f040fb7e20efc9c41079d4aab488fbf9fd8c1d443'),
    ('extend', 'text'):
        (1, 'c08f45d4631568bbe3daaf3d57149c7efa1eec5fa6ecbacefc3823202599aecc'),
    ('extend', 'json'):
        (1, '6c218dfcd1ddf481ac337bfb757de4261b0fe638317af3ced160c2808e34424a'),
    ('extend-bent-operator', 'text'):
        (1, 'ae2eab5af4042f67518c4c7c227aedcbe9226013de843853c23190659a129213'),
    ('extend-bent-operator', 'json'):
        (1, 'b572f92b6fd6c0083f2c24cacb896017a858441519c981cf285bc96ecaf5b3aa'),
    ('extend-bent-pairing', 'text'):
        (1, '0aa742f8080c3de0b8ae164f7d9cced5fbc61b6fe1a958a1437723619bcadd60'),
    ('extend-bent-pairing', 'json'):
        (1, 'd69a6a92f3e61534e41e17442297b4dd31918b9d0de8060cb47a1e9922042a24'),
    ('triple-to-skeletal', 'text'):
        (1, '08476653f2a29ef05a2ea64adc3085e3214e3b07d46dc434756358592debb823'),
    ('triple-to-skeletal', 'json'):
        (1, 'ce8818a425fb1f6a95596eddcbf2486eb38e9a653ce913b31f01d70e23a66ed4'),
    ('extract-cocycle', 'text'):
        (1, '69feba0b2ba3db2fa1891a7c1a30ac37c394644fe79184e02d90b1a0035899cf'),
    ('extract-cocycle', 'json'):
        (1, '8b03a602054fefa42b5dc74b0338445285c27f8e0c5868bd8fc88c814d3bc5f6'),
    ('skeletal-to-triple', 'text'):
        (1, '086a862214ef7f5010669ff355c5389d8f218e1950574b0505b5f0a52918722a'),
    ('skeletal-to-triple', 'json'):
        (1, '83015c78d7027be2a161168320e83050d6530af3ab8e57076b63571e56a0e52f'),
    ('validate-bent', 'text'):
        (1, 'cd5c76a6470f0f0a14f3657519fea31909a52b97a65343f130b679535a220275'),
    ('validate-bent', 'json'):
        (1, '7f55c168ab00f2de3669b4a559f44b1363300297d070a2f4a69b5bd45f35bb1c'),
    ('validate-unsplit', 'text'):
        (1, '17e0ece5e09bd172979276e0f46a5848dce08732fb67f938eb65614fa5699637'),
    ('validate-unsplit', 'json'):
        (1, '2f7869e90749a342d4e008435cfda5b4033104a94e6030e6c084f735ed790311'),
}


@pytest.fixture(scope="module")
def rejected_dir(tmp_path_factory):
    return prepare_rejected_fixtures(tmp_path_factory.mktemp("r") / "work")


def test_rejected_table_covers_every_command_and_format():
    assert set(REJECTED) == {(c, fmt) for c in REJECTS for fmt in FORMATS}


@pytest.mark.parametrize("key", sorted(REJECTED), ids="-".join)
def test_rejected_output_is_unchanged(key, rejected_dir):
    command, fmt = key
    assert run_writer(REJECTS[command], fmt, rejected_dir) == \
        (*REJECTED[key], None)


def r_matrix_fixtures():
    """name -> (algebra, the rows of the r-matrix's tensor as strings)."""
    r = upper_triangular_r_matrix(random_invertible(Random(2), 3))
    return {
        "solution": (r.over, format_matrix(r.matrix)),
        "one-one": (dual_numbers(), [["1", "0"], ["0", "0"]]),
        "dense": (truncated_cubic(),
                  [["1", "2", "0"], ["-1", "1/2", "3"], ["0", "1", "-2"]]),
    }


def write_r_matrix(alg, rows, path):
    doc = ff.new_document()
    ff.declare(doc, "assoc_algebra", "A", alg)
    ff.declare(doc, "r_matrix", "r", RMatrix(alg, Matrix.from_rows(rows)),
               algebra="A")
    ff.write_path(doc, path)


def prepare_r_matrix_fixtures(work):
    for name, (alg, rows) in r_matrix_fixtures().items():
        write_r_matrix(alg, rows, work / f"{name}.json")
    return work


# (fixture, format) -> (exit code, sha256 of stdout of validate)
AYBE = {
    ('solution', 'text'):
        (0, 'f038b77a7f96e55685921e191da64806a451504fb5423becb88379886111fa51'),
    ('solution', 'json'):
        (0, 'fe789fa1d9d6d77203eb1637321cb391a06d52a5e8cf71403d16d3640d73a3c7'),
    ('one-one', 'text'):
        (1, 'ee71ea084ae4933ee7e93593c31255c3581032740da4f930bbcc748126452229'),
    ('one-one', 'json'):
        (1, 'a10ba932e1632e65e3bf8c9b7189c1373d7957681abc8adedebe72472cf8da70'),
    ('dense', 'text'):
        (1, 'fdb510e0668568675b0a27b297cfd7853dc1f632ad1c3517fa459356c0cf063b'),
    ('dense', 'json'):
        (1, '6c1fa43ab1887863118c80d4232a95dfa62e39e5c874ec2c6e9840a44226422b'),
}


@pytest.fixture(scope="module")
def r_matrix_dir(tmp_path_factory):
    return prepare_r_matrix_fixtures(tmp_path_factory.mktemp("aybe"))


def test_aybe_table_covers_every_fixture_and_format():
    assert set(AYBE) == {(f, fmt) for f in r_matrix_fixtures()
                         for fmt in FORMATS}


@pytest.mark.parametrize("key", sorted(AYBE), ids="-".join)
def test_aybe_output_is_unchanged(key, r_matrix_dir):
    name, fmt = key
    assert run("validate", fmt, r_matrix_dir / f"{name}.json") == AYBE[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        print("GOLDEN = {")
        for name in FIXTURES:
            path = Path(work) / f"{name}.json"
            write_fixture(name, path)
            for key in GOLDEN_KEYS:
                if key[0] == name:
                    rc, sha = run(key[1], key[2], path)
                    print(f"    {key!r}:\n        ({rc}, {sha!r}),")
        print("}")
        print("WRITTEN = {")
        for name in WRITER_FIXTURES:
            wdir = prepare_writer_fixture(name, Path(work) / name)
            for command in WRITERS:
                for fmt in FORMATS:
                    rc, out, written = run_writer(WRITERS[command], fmt,
                                                  wdir)
                    print(f"    ({name!r}, {command!r}, {fmt!r}):\n"
                          f"        ({rc}, {out!r},\n"
                          f"         {written!r}),")
        print("}")
        print("PAIRS = {")
        for s in range(100):
            print(f"    {s}: {pair_digest(s)!r},")
        print("}")
        print("REJECTED = {")
        rdir = prepare_rejected_fixtures(Path(work) / "rejected")
        for command in REJECTS:
            for fmt in FORMATS:
                rc, out, _ = run_writer(REJECTS[command], fmt, rdir)
                print(f"    ({command!r}, {fmt!r}):\n"
                      f"        ({rc}, {out!r}),")
        print("}")
        print("AYBE = {")
        adir = prepare_r_matrix_fixtures(Path(work))
        for name in r_matrix_fixtures():
            for fmt in FORMATS:
                rc, sha = run("validate", fmt, adir / f"{name}.json")
                print(f"    ({name!r}, {fmt!r}):\n        ({rc}, {sha!r}),")
        print("}")
