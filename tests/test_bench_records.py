"""The committed benchmark records at the repository root are well formed.

A speed or quality claim counts only through a ``BENCH_*.json`` record, so
each one must parse and say what it measured, how it was run, on which source
and on which machine.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("what", "command", "source", "machine")


def test_there_is_a_benchmark_record():
    assert RECORDS, f"no BENCH_*.json under {ROOT}"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_benchmark_record_parses_and_has_the_required_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    missing = [key for key in REQUIRED if not record.get(key)]
    assert not missing, f"{path.name} lacks {missing}"
