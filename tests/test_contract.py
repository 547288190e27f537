"""The command-line half of the behaviour contract: byte-level digests of
what `qtc` prints, exits with and writes to its cache on a fixed corpus.

Each entry of contract.json is an argv list, run in-process through
qtchar.cli.main twice on one cache directory, first empty and then warm.
A run's digest is the sha256 of its exit code, stdout, stderr and every
file the cache directory holds after it, and both runs must give the
entry's digest: a warm run prints and keeps exactly what a cold one
does.  Update a digest only for a deliberate change of output, and say
so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qtchar.cli import main

CONTRACT = json.loads((Path(__file__).resolve().parent / "contract.json").read_text())


def _run_digest(argv: list, cache: Path) -> str:
    """sha256 of one in-process run of `qtc argv --cache-dir cache`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--cache-dir", str(cache)])
    h = hashlib.sha256(f"exit {code}\n".encode())
    for stream in (out.getvalue(), err.getvalue()):
        data = stream.encode("utf-8")
        h.update(f"{len(data)}\n".encode() + data)
    for path in sorted(cache.iterdir()) if cache.is_dir() else ():
        data = path.read_bytes()
        h.update(f"{path.name} {len(data)}\n".encode() + data)
    return h.hexdigest()


@pytest.mark.parametrize("entry", CONTRACT, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_contract(entry, tmp_path):
    cache = tmp_path / "cache"
    assert _run_digest(entry["argv"], cache) == entry["sha256"], "cold cache"
    assert _run_digest(entry["argv"], cache) == entry["sha256"], "warm cache"
