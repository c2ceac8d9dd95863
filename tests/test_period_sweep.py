"""Checks on tests/data/period_sweep.json, written by scripts/period_sweep.py."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

import zeckinv.pattern

ROOT = Path(__file__).resolve().parents[1]
ROWS = {r["a"]: r for r in json.loads((ROOT / "tests" / "data" / "period_sweep.json").read_text())}

_loader = importlib.util.spec_from_file_location("period_sweep", ROOT / "scripts" / "period_sweep.py")
period_sweep = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(period_sweep)


def test_sweep_covers_every_a_without_mismatch():
    assert sorted(ROWS) == list(range(2, 1001))
    for a, r in ROWS.items():
        assert r["checked"] > 0 and r["mismatches"] == 0, a
        assert 1 <= r["cycles"] <= r["z"] < r["M"], a


def test_i0_never_exceeds_m_plus_3():
    # i0 = ceil(log_phi a) + 4 from a alone, against the recorded M: no n
    # that the layout i0 = M + 3 served is lost, and only a = 2 keeps it.
    for a, r in ROWS.items():
        i0 = zeckinv.pattern._i0(a)
        assert r["i0"] == i0, a
        assert i0 <= r["M"] + 3, a
        assert (i0 == r["M"] + 3) == (a == 2), a


@pytest.mark.parametrize("a", sorted(random.Random(7).sample(range(2, 301), 24)))
def test_sweep_rows_recompute(monkeypatch, a):
    # The cycle count is also checked against the number of floor(phi*v)
    # lookups synthesis makes, M per cycle, from one memo, which does not
    # depend on the script's walk.
    tables = []
    lookups = []

    class CountingFloors(zeckinv.pattern._PhiFloors):
        def __init__(self):
            tables.append(a)

        def __getitem__(self, v):
            lookups.append(v)
            return super().__getitem__(v)

    monkeypatch.setattr(zeckinv.pattern, "_PhiFloors", CountingFloors)
    assert period_sweep.row(a) == ROWS[a]
    assert tables == [a]
    assert len(lookups) == ROWS[a]["cycles"] * ROWS[a]["M"]
