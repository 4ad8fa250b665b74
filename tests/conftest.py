"""Shared pytest plumbing.

The acceptance module records one (criterion, passed) entry per test; the
terminal-summary hook reprints them after the run so the per-criterion
lines are visible even with output capture enabled.  The bench_workloads
fixture loads the benchmark's case lists.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ACCEPTANCE = []


@pytest.fixture
def bench_workloads(monkeypatch):
    """bench/workloads.py as a module: build(name, seed, seqguess) gives a workload's cases."""
    spec = importlib.util.spec_from_file_location("bench_workloads", Path(__file__).parents[1] / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in ACCEPTANCE:
        terminalreporter.write_line(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
