"""Table families and run vocabularies as plain data.

Everything a scenario spec validates against, and nothing that runs a
table: the table families (robot count, bit-pattern domain, chirality
fallback plan), the start policies, exploration properties and
schedulers a run may name, the seeded pattern sampler and its default
seed, and the jobs resolution. The module imports only
:mod:`repro.errors` and :mod:`repro.types`, so the spec, registry, store
and report layers — and with them ``campaign list|status|report`` and
a cache-hit ``campaign run`` — never load the solver or the simulator.

The solver and simulator re-export these objects rather than restating
them: :data:`repro.verification.game.PROPERTIES`,
:data:`repro.sim.SCHEDULERS`, :data:`repro.verification.sweeps
.START_POLICIES`/``TABLE_FAMILIES``, and
:func:`repro.verification.enumeration.sample_table_patterns` are the
objects defined here. :mod:`repro.verification.sweeps` pairs each
:data:`FAMILIES` entry with its table constructor and pattern code.
"""

from __future__ import annotations

import os
import random
from typing import NamedTuple, Optional

from repro.errors import VerificationError
from repro.types import Chirality


class TableFamily(NamedTuple):
    """One table family as data: robots, pattern domain, chirality plan.

    ``plan`` is a sequence of chirality-vector lists tried in order; a
    table counts as trapped as soon as any stage returns non-explorable.
    ``space`` is the bit-pattern domain ``0..space-1``.
    """

    k: int
    space: int
    plan: tuple


_TWO_ROBOT_PLAN = (
    ((Chirality.AGREE, Chirality.AGREE),),
    ((Chirality.AGREE, Chirality.DISAGREE),),
)

FAMILIES: dict[str, TableFamily] = {
    "single": TableFamily(k=1, space=1 << 8, plan=(((Chirality.AGREE,),),)),
    "two": TableFamily(k=2, space=1 << 16, plan=_TWO_ROBOT_PLAN),
    # Memory 2: 4**32 tables (``table_space_size(2)``).
    "two-m2": TableFamily(k=2, space=1 << 64, plan=_TWO_ROBOT_PLAN),
}

TABLE_FAMILIES = tuple(sorted(FAMILIES))
"""Registered table-family names (the robot-class axis of a scenario)."""

START_POLICIES = ("well", "arbitrary")
"""Initial-placement policies: the paper's well-initiated towerless starts
vs the self-stabilizing quantifier over every placement, towers included
(Bournat–Datta–Dubois 2017)."""

PROPERTIES = ("perpetual", "live")
"""Checkable exploration properties.

``"perpetual"`` is the paper's specification: every node is visited
infinitely often; the adversary wins iff some node is visited only
finitely often. ``"live"`` is the weaker one-shot specification of
Di Luna et al.'s live exploration: every node is visited at least once;
the adversary wins iff it can keep some node unvisited *from round 0*.
Every live trap is a perpetual trap (zero visits are finitely many), so
per-class trap tallies satisfy ``trapped_live <= trapped_perpetual``.
"""

DEFAULT_RNG_SEED = 20170605
"""Default table-sampling seed (the paper's submission date)."""

SCHEDULERS = ("fsync", "ssync")
"""Execution scheduler names: fully synchronous (every robot activated
every round, :func:`repro.sim.run_fsync`) and semi-synchronous
(adversarial fair activation subsets, :func:`repro.sim.run_ssync`).
Scenario specs (:mod:`repro.scenarios`) name their scheduler with one of
these."""


def check_family(family: str) -> TableFamily:
    """The entry of a registered table family; raise on an unknown name."""
    if family not in FAMILIES:
        raise VerificationError(
            f"unknown table family {family!r}; choose from {sorted(FAMILIES)}"
        )
    return FAMILIES[family]


def family_k(family: str) -> int:
    """Robot count of a table family."""
    return check_family(family).k


def family_space(family: str) -> int:
    """Number of distinct tables in a family (its bit-pattern domain)."""
    return check_family(family).space


def sample_table_patterns(space: int, sample: int, seed: int) -> list[int]:
    """``sample`` distinct table patterns drawn uniformly from ``0..space-1``.

    Deterministic for a fixed ``(space, sample, seed)`` triple — the same
    draw on every machine, worker count and Python ≥ 3.11 build — which is
    what lets sampled campaigns checkpoint and resume. Works on spaces far
    past enumeration (``random.sample`` indexes the range lazily), e.g.
    the ``2**64`` memory-2 two-robot class.
    """
    if not 1 <= sample <= space:
        raise VerificationError(
            f"sample must be in 1..{space}, got {sample}"
        )
    rng = random.Random(seed)
    if space <= (1 << 63) - 1:
        # The historical draw (kept bit-for-bit for existing artifacts).
        return rng.sample(range(space), sample)
    # ``random.sample`` needs len(population) to fit a C ssize_t; past
    # that, rejection-sample distinct values. At sane sample sizes the
    # collision probability is ~sample²/space, so retries are vanishing.
    seen: set[int] = set()
    draws: list[int] = []
    while len(draws) < sample:
        value = rng.randrange(space)
        if value not in seen:
            seen.add(value)
            draws.append(value)
    return draws


def available_cpus() -> int:
    """CPUs actually available to this process.

    Respects CPU affinity and cgroup-style restrictions where the
    platform exposes them (``os.process_cpu_count`` on Python ≥ 3.13,
    ``os.sched_getaffinity`` elsewhere on Linux), falling back to the
    raw ``os.cpu_count``. Sizing pools by the raw count oversubscribes
    pinned/containerized runs.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        return process_cpu_count() or 1
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            return len(sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platform
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request (``None`` → all *available* cores; floor 1)."""
    if jobs is None:
        return available_cpus()
    if jobs < 1:
        raise VerificationError(f"jobs must be >= 1, got {jobs}")
    return jobs


__all__ = [
    "DEFAULT_RNG_SEED",
    "FAMILIES",
    "PROPERTIES",
    "SCHEDULERS",
    "START_POLICIES",
    "TABLE_FAMILIES",
    "TableFamily",
    "available_cpus",
    "check_family",
    "family_k",
    "family_space",
    "resolve_jobs",
    "sample_table_patterns",
]
