"""Recorded CLI output: each request in data/records.jsonl must print what it printed when recorded.

Each line holds one request's argv, its exit code, its --json record with
every {dec, hex} real replaced by REAL, and its plain-mode stdout when the
record holds no real (else null).  The real-valued fields are left to the
numeric tests, which do not depend on mpmath's last bits.  The requests are
cheap: every README example, each subcommand and status, the fallback quads,
transform --n 1..4 and --abc 3 2 1 at N <= 60, and domain, point-budget and
oversized-value error records.

The file is written once and changed only on purpose.  To rewrite it from
the code in src/, keeping its requests:

    PYTHONPATH=src python -c 'import sys; sys.path.insert(0, "tests");
    import test_records as r; r.write(r.DATA)'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from xyyx.cli import PRECISION_ENV, main

DATA = Path(__file__).resolve().parent / "data" / "records.jsonl"
REAL = "<real>"


def _masked(value):
    """value with each {dec, hex} real replaced by REAL, and whether it held one."""
    if isinstance(value, dict):
        if set(value) == {"dec", "hex"}:
            return REAL, True
        items = [(k, *_masked(v)) for k, v in value.items()]
        return {k: v for k, v, _ in items}, any(real for _, _, real in items)
    if isinstance(value, list):
        items = [_masked(v) for v in value]
        return [v for v, _ in items], any(real for _, real in items)
    return value, False


def _stdout(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def record(argv: list[str]) -> dict:
    """The line of records.jsonl for argv, from the code now imported."""
    code, out = _stdout([argv[0], "--json", *argv[1:]])
    doc, has_real = _masked(json.loads(out))
    plain = None if has_real else _stdout(argv)[1]
    return {"argv": argv, "code": code, "json": doc, "plain": plain}


def write(path: Path) -> None:
    requests = [json.loads(line)["argv"] for line in path.read_text().splitlines()]
    os.environ.pop(PRECISION_ENV, None)
    path.write_text("".join(json.dumps(record(argv)) + "\n" for argv in requests))


RECORDS = [json.loads(line) for line in DATA.read_text().splitlines()]


@pytest.mark.parametrize("expected", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_record_is_unchanged(monkeypatch, expected):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
    assert record(expected["argv"]) == expected


def test_records_cover_every_subcommand_and_status():
    assert {r["argv"][0] for r in RECORDS} == {
        "euler", "family", "verify", "digits", "vpv-eval", "transform", "search"
    }
    assert {r["json"]["status"] for r in RECORDS} == {"ok", "warning", "error"}
