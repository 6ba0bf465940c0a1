"""Shared helpers for the benchmark suite.

Every benchmark executes one spec from :mod:`repro.analysis.specs`
through the engine exactly once (``benchmark.pedantic`` with one round
— the experiments are deterministic simulations, so statistical
repetition only wastes time), asserts the paper's qualitative shape,
and archives the human-readable report under ``benchmarks/reports/``
for EXPERIMENTS.md.

Machine-readable records come from ``python -m repro run --json`` /
``--bench-out``, not from here.  The result cache is deliberately not
consulted: a benchmark that returned a cached result would time
nothing.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import engine, specs

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    REPORTS_DIR.mkdir(exist_ok=True)
    return REPORTS_DIR


@pytest.fixture
def record_report(report_dir):
    """Save an experiment's text report and echo it."""

    def _record(result):
        path = report_dir / f"{result.experiment}.txt"
        body = result.report
        if result.notes:
            body += f"\n  notes: {result.notes}"
        body += f"\n  shape_holds: {result.shape_holds}\n"
        path.write_text(body)
        print()
        print(body)
        return result

    return _record


def run_spec(benchmark, experiment_id: str):
    """Execute one spec through the engine under pytest-benchmark."""
    return benchmark.pedantic(
        engine.execute, args=(specs.SPECS[experiment_id],),
        rounds=1, iterations=1,
    )
