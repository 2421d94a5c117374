"""The CLI's output bytes, pinned: each command runs through cli.main in an
empty directory, and one SHA-256 covers its exit code, stdout, stderr and
every file it writes, by relative path and content.  A change that keeps
the program's behaviour keeps every hash; the hashes were recorded from the
program before its size limits, scan item rule and classification verdicts
were each stated once."""

import hashlib
import json
import os
import shlex

import pytest

from orbitsquares.cli import main

# command line (with D the output directory) -> SHA-256 of its outcome
GOLDEN = {
    "classify --field 5 --poly 1,0,2,1":
        "3a5486cc7b53ae6848c65ddea2e8413a28f92942b2160cf38f8aa2eeb07d78cf",
    "classify --field 3^2 --poly 1,2,3,1":
        "3a5486cc7b53ae6848c65ddea2e8413a28f92942b2160cf38f8aa2eeb07d78cf",
    "classify --field '7/(3,1)' --poly 0,0,1":
        "c393d3c60ec7c98f603e5d9b3931df70ee1299b63b4ee3f9c302dafc53de5345",
    "orbit --field 3^2 --poly 0,0,1 --start 3":
        "78d71baaaffbd2b6ad36032fae6c8f61e11c7ed5e844f628a4604a99a1e904da",
    "gen-family --field 3^2 --degree 3 --B 5":
        "f18e8cdab4056f82c7caf0b1d5f6218c9c6285bef190be750ef2315972229865",
    "gen-family --field 7 --degree 2 --B 2":
        "f0ee380c6c31a0792c041b815fbba4751ed70b4aff46266de42b656b8c063057",
    "verify-weil --field 5 --degree 3 --out D":
        "9a48b6c2f8598580e5003732088d7eb98c7e3f588f0fa230fae00ce552a95f47",
    "verify-bounds --field 7 --degree 2 --sample 50 --out D":
        "788dd034e27b3e4dd0527360d4acc501a3027ecfc48559829b424e80459a8d9a",
    "scan --field 7 --degree 3 --checks classification,weil,orbit-bounds,run-bounds,ratios --out D":
        "18e57b8ec67315d2eb7e9689cb3b0924c48a50dc7bdb6345809aedc210f35bff",
    "scan --field 3^2 --degree 2 --checks classification,weil,run-bounds --out D":
        "2402e23389e746c05adb8ff655966c2244e9a92c074407c70afd4a0a90f8d7ff",
    "scan --field '3^2/(2,1,1)' --degree 2 --checks classification,weil,run-bounds,ratios --workers 2 --out D":
        "5eca34a4f8a5da070f3db6a96c4f77cbbe98f299a236528d76caa61d24ae1b86",
    "classify --field 9^0 --poly 1":
        "ded09f7a610465533a5f721bdf56bad2308c0ce951186b5eba91a9ad75e59bc0",
    "classify --field '3^2/(1,1,1)' --poly 1,1":
        "ccde33e7915866eb35cfc4d3a7d069cfb9c207c17a72025c40c273aa11e17608",
}


def outcome(argv, capsys) -> dict:
    """Exit code, stdout, stderr and written files of one cli.main call,
    run in the current (empty) directory."""
    rc = main(argv)
    out, err = capsys.readouterr()
    files = {}
    for root, _, names in os.walk("."):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return {"rc": rc, "stdout": out, "stderr": err, "files": files}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_cli_output_is_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = outcome(shlex.split(command), capsys)
    digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN[command], got
