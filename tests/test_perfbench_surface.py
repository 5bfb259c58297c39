"""The benchmark's workloads run on today's package: one round of each, at
one seed, with every answer checked as the harness checks it.  A name that
the benchmark reads and the package no longer has fails here first."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_every_workload_runs_one_checked_round(workloads):
    assert workloads.WORKLOADS
    for name, make in workloads.WORKLOADS.items():
        wl = make(3)
        for point in wl.points:
            result = wl.op(point)
            assert wl.check(point, result, wl.reference(point)) is None, (name, point)
