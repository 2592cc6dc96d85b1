"""Shared scenario-building helpers for the spec and campaign suites.

A plain module (not a conftest: both ``tests/`` and ``benchmarks/`` have
a ``conftest.py`` on ``sys.path``, so the name would be ambiguous).
"""

from __future__ import annotations

from repro.scenarios import RobotClassSpec, ScenarioSpec


def make_tiny_scenario(**overrides) -> ScenarioSpec:
    """A small valid campaign scenario, overridable per test.

    Shared by the scenario-spec and campaign-runner suites so their
    baseline workload (24 sampled single-robot tables on the 3-ring, 4
    chunks of 7) can never drift apart.
    """
    fields = dict(
        name="tiny",
        description="a tiny test scenario",
        robots=RobotClassSpec(family="single", sample=24),
        n=3,
        chunk_size=7,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def make_tiny_dynamics_scenario(**overrides) -> ScenarioSpec:
    """A small valid *simulation* scenario (schedule-family dynamics).

    Baseline: 12 sampled two-robot tables against a seeded Bernoulli
    4-ring over a 24-round horizon, 3 chunks of 4 — small enough for the
    campaign suite's interrupt/resume and jobs-determinism tests.
    """
    fields = dict(
        name="tiny-dyn",
        description="a tiny simulation-backed test scenario",
        robots=RobotClassSpec(family="two", sample=12),
        n=4,
        dynamics="bernoulli",
        dynamics_params={"p": 0.75},
        dynamics_seed=20170605,
        horizon=24,
        chunk_size=4,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def make_table_spec(family: str, n: int, **overrides) -> ScenarioSpec:
    """A solver scenario of every ``family`` table on the ``n``-ring.

    The spec a direct ``sweep_chunk(spec, chunk)`` call needs. The chunk
    itself picks the tables, so the one-table sample that keeps
    ``two-m2`` valid is never expanded.
    """
    fields = dict(
        name=f"table-{family}-n{n}",
        description=f"{family} tables on the {n}-ring",
        robots=RobotClassSpec(family=family, sample=1),
        n=n,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)
