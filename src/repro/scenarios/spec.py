"""Declarative scenario specs: a verification workload as frozen data.

A :class:`ScenarioSpec` names everything that determines a sweep's outcome
and nothing that doesn't:

* a **dynamics family** — ``"highly-dynamic"`` (the unrestricted
  connected-over-time adversary the game solver plays) or one of the
  oblivious schedule families of
  :data:`repro.graph.schedules.SCHEDULE_FAMILIES`, in which case the spec
  also pins a concrete, hash-stable parameterization
  (``dynamics_params`` + ``dynamics_seed``, see
  :mod:`repro.scenarios.dynamics`) and a bounded simulation ``horizon``,
  and the campaign executes by *simulation*
  (:mod:`repro.scenarios.simulate`) instead of by exact game solving;
* a **scheduler** — ``"fsync"`` or ``"ssync"``
  (:data:`repro.verification.families.SCHEDULERS`); the exact solver
  executes both: under SSYNC the adversary additionally activates a
  non-empty robot subset each round, and a winning SCC must activate
  every robot (fairness);
* a **robot class** — a table family (:data:`repro.verification.families
  .TABLE_FAMILIES`: memoryless single/two-robot, memory-2 two-robot),
  either exhausted or sampled with a seeded RNG;
* a **start policy** — the paper's well-initiated towerless starts or the
  self-stabilizing quantifier over arbitrary (ill-initiated, towers
  allowed) placements;
* a **property** — perpetual exploration (the paper's spec) or the
  at-least-once live exploration of Di Luna et al.

Specs are frozen dataclasses with a canonical JSON form
(:meth:`ScenarioSpec.to_dict`, round-tripped by :mod:`repro.serialize`)
and a stable content-hash identity (:attr:`ScenarioSpec.scenario_id`)
computed over the *semantic* payload only — renaming or re-describing a
scenario does not orphan its stored results, changing what it verifies
does. The chunking of the pattern stream (``chunk_size``) is part of the
payload because it defines the checkpoint boundaries a resumed campaign
must agree on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from repro._sha256 import sha256
from repro.errors import ScenarioError
from repro.graph.schedules import SCHEDULE_FAMILIES
from repro.scenarios.dynamics import (
    DEFAULT_HORIZON,
    canonical_params,
    params_dict,
    validate_dynamics,
)
from repro.verification.families import (
    DEFAULT_RNG_SEED,
    PROPERTIES,
    SCHEDULERS,
    START_POLICIES,
    TABLE_FAMILIES,
    family_k,
    family_space,
    sample_table_patterns,
)

SCENARIO_FORMAT_VERSION = 1

#: Dynamics family names a scenario may declare. ``"highly-dynamic"`` is
#: the adversarial family of the paper's theorems — the one the exact
#: solver quantifies over; the schedule families are oblivious workloads
#: executed by the simulation chunk runner against their pinned
#: parameterization.
DYNAMICS_FAMILIES = ("highly-dynamic",) + tuple(sorted(SCHEDULE_FAMILIES))

#: The largest family a scenario may enumerate exhaustively; bigger
#: families (e.g. the 2**64 memory-2 class) must declare a sample.
EXHAUSTIVE_LIMIT = 1 << 16


@dataclass(frozen=True)
class RobotClassSpec:
    """The robot-class axis of a scenario: which tables, and how many.

    ``family`` picks the table class (and with it the robot count, the
    memory size and the chirality fallback plan); ``sample`` is ``None``
    for exhaustive enumeration or the number of distinct tables to draw
    deterministically with ``rng_seed``.
    """

    family: str
    sample: int | None = None
    rng_seed: int = DEFAULT_RNG_SEED

    def __post_init__(self) -> None:
        if self.sample is None:
            # The seed is meaningless without sampling: normalize it away
            # so it cannot perturb spec equality or the scenario content
            # hash (an exhaustive campaign must never be orphaned by a
            # seed nobody used).
            object.__setattr__(self, "rng_seed", DEFAULT_RNG_SEED)

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on any inconsistency."""
        if self.family not in TABLE_FAMILIES:
            raise ScenarioError(
                f"unknown table family {self.family!r}; "
                f"choose from {TABLE_FAMILIES}"
            )
        space = family_space(self.family)
        if self.sample is None:
            if space > EXHAUSTIVE_LIMIT:
                raise ScenarioError(
                    f"family {self.family!r} has {space} members; "
                    f"exhaustive scenarios are capped at {EXHAUSTIVE_LIMIT} — "
                    "declare a sample"
                )
        elif not 1 <= self.sample <= space:
            # A sample's cost scales with the sample, not the space, so
            # only the space itself bounds it (10^6-table memory-2
            # campaigns are a ROADMAP item, not a mistake).
            raise ScenarioError(
                f"sample must be in 1..{space} "
                f"for family {self.family!r}, got {self.sample}"
            )

    @property
    def k(self) -> int:
        """Robot count of the table family."""
        return family_k(self.family)

    @property
    def table_count(self) -> int:
        """Number of tables this class expands to."""
        if self.sample is None:
            return family_space(self.family)
        return self.sample

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (embedded in the scenario encoding)."""
        return {
            "family": self.family,
            "sample": self.sample,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RobotClassSpec":
        """Decode the :meth:`to_dict` form."""
        sample = data["sample"]
        return cls(
            family=str(data["family"]),
            sample=None if sample is None else int(sample),
            rng_seed=int(data["rng_seed"]),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named workload, fully determined by its fields.

    ``dynamics="highly-dynamic"`` specs are verification workloads (the
    exact game solver quantifies over every connected-over-time
    adversary). Any other ``dynamics`` names a schedule family and makes
    the spec a *simulation* workload: ``dynamics_params`` (a mapping,
    canonicalized to a JSON string at construction) plus
    ``dynamics_seed`` (required exactly for randomized families) pin the
    concrete evolving graph, and ``horizon`` bounds each table run (the
    exploration check is evaluated over that window — see
    :mod:`repro.scenarios.simulate`).
    """

    name: str
    description: str
    robots: RobotClassSpec
    n: int
    topology: str = "ring"
    dynamics: str = "highly-dynamic"
    scheduler: str = "fsync"
    starts: str = "well"
    prop: str = "perpetual"
    chunk_size: int = 256
    dynamics_params: Any = None
    dynamics_seed: int | None = None
    horizon: int | None = None

    def __post_init__(self) -> None:
        if self.dynamics != "highly-dynamic" and self.dynamics in SCHEDULE_FAMILIES:
            # Normalize the parameterization into its canonical, frozen
            # form *before* validation so equality, hashing and the
            # content hash all see one byte form per workload.
            object.__setattr__(
                self, "dynamics_params", canonical_params(self.dynamics_params)
            )
            if self.horizon is None:
                object.__setattr__(self, "horizon", DEFAULT_HORIZON)
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ScenarioError` on any inconsistency."""
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.topology != "ring":
            raise ScenarioError(
                f"scenario topology must be 'ring' (sweeps run on rings), "
                f"got {self.topology!r}"
            )
        if self.dynamics not in DYNAMICS_FAMILIES:
            raise ScenarioError(
                f"unknown dynamics family {self.dynamics!r}; "
                f"choose from {DYNAMICS_FAMILIES}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ScenarioError(
                f"unknown scheduler {self.scheduler!r}; choose from {SCHEDULERS}"
            )
        if self.starts not in START_POLICIES:
            raise ScenarioError(
                f"unknown start policy {self.starts!r}; "
                f"choose from {START_POLICIES}"
            )
        if self.prop not in PROPERTIES:
            raise ScenarioError(
                f"unknown property {self.prop!r}; choose from {PROPERTIES}"
            )
        if self.chunk_size < 1:
            raise ScenarioError(f"chunk_size must be >= 1, got {self.chunk_size}")
        self.robots.validate()
        if self.n < 3:
            raise ScenarioError(f"scenario rings need n >= 3, got n={self.n}")
        if self.starts == "well" and self.robots.k >= self.n:
            raise ScenarioError(
                f"well-initiated starts need k < n, got k={self.robots.k}, "
                f"n={self.n}"
            )
        if self.dynamics == "highly-dynamic":
            if (
                self.dynamics_params is not None
                or self.dynamics_seed is not None
                or self.horizon is not None
            ):
                raise ScenarioError(
                    "dynamics_params/dynamics_seed/horizon only apply to "
                    "schedule-family dynamics; the 'highly-dynamic' "
                    "adversary is unparameterized (the solver quantifies "
                    "over every connected-over-time schedule)"
                )
        else:
            # Loud, construction-time gate: a schedule-family spec that
            # validates is guaranteed instantiable in every chunk worker.
            validate_dynamics(
                self.dynamics, self.dynamics_params, self.dynamics_seed, self.n
            )
            if self.horizon < 1:
                raise ScenarioError(
                    f"simulation horizon must be >= 1, got {self.horizon}"
                )

    # ------------------------------------------------------------------
    # Identity and encoding
    # ------------------------------------------------------------------
    def payload_dict(self) -> dict[str, Any]:
        """The semantic payload: every field that affects results.

        ``name`` and ``description`` are presentation metadata and are
        deliberately excluded — the scenario hash identifies the
        *workload*, so stored results survive renames.

        The schedule-parameterization keys appear only for
        schedule-family dynamics, so every pre-existing
        ``"highly-dynamic"`` scenario keeps its historical content hash
        (and with it every stored campaign result).
        """
        payload: dict[str, Any] = {
            "version": SCENARIO_FORMAT_VERSION,
            "topology": self.topology,
            "n": self.n,
            "dynamics": self.dynamics,
            "scheduler": self.scheduler,
            "robots": self.robots.to_dict(),
            "starts": self.starts,
            "property": self.prop,
            "chunk_size": self.chunk_size,
        }
        if self.dynamics != "highly-dynamic":
            payload["dynamics_params"] = params_dict(self.dynamics_params)
            payload["dynamics_seed"] = self.dynamics_seed
            payload["horizon"] = self.horizon
        return payload

    @property
    def scenario_id(self) -> str:
        """Stable content-hash identity (16 hex chars).

        SHA-256 over the canonical JSON of :meth:`payload_dict` (sorted
        keys, minimal separators) — the same spec hashes identically on
        every machine and Python version.
        """
        canonical = json.dumps(
            self.payload_dict(), sort_keys=True, separators=(",", ":")
        )
        return sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        """Versioned JSON-ready encoding (see :mod:`repro.serialize`)."""
        data: dict[str, Any] = {
            "format": "scenario",
            "name": self.name,
            "description": self.description,
        }
        data.update(self.payload_dict())
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Decode (and re-validate) the :meth:`to_dict` form."""
        if data.get("format") != "scenario":
            raise ScenarioError(
                f"expected format 'scenario', got {data.get('format')!r}"
            )
        if data.get("version") != SCENARIO_FORMAT_VERSION:
            raise ScenarioError(
                f"unsupported scenario version {data.get('version')!r} "
                f"(this library reads version {SCENARIO_FORMAT_VERSION})"
            )
        seed = data.get("dynamics_seed")
        horizon = data.get("horizon")
        return cls(
            name=str(data["name"]),
            description=str(data["description"]),
            robots=RobotClassSpec.from_dict(data["robots"]),
            n=int(data["n"]),
            topology=str(data["topology"]),
            dynamics=str(data["dynamics"]),
            scheduler=str(data["scheduler"]),
            starts=str(data["starts"]),
            prop=str(data["property"]),
            chunk_size=int(data["chunk_size"]),
            dynamics_params=data.get("dynamics_params"),
            dynamics_seed=None if seed is None else int(seed),
            horizon=None if horizon is None else int(horizon),
        )

    # ------------------------------------------------------------------
    # Expansion into a sweep plan
    # ------------------------------------------------------------------
    @property
    def table_count(self) -> int:
        """Number of tables the scenario verifies."""
        return self.robots.table_count

    def expand_patterns(self) -> list[int]:
        """The full, deterministic table bit-pattern stream."""
        if self.robots.sample is None:
            return list(range(family_space(self.robots.family)))
        return sample_table_patterns(
            family_space(self.robots.family),
            self.robots.sample,
            self.robots.rng_seed,
        )

    def chunks(self) -> list[Sequence[int]]:
        """The pattern stream cut into fixed-size checkpoint chunks.

        The cut depends only on the spec (never on worker count), so chunk
        index ``i`` names the same work in every run — the invariant that
        makes campaign checkpoints portable across interrupts and hosts.
        An exhaustive family's chunks are ``range`` objects (65,536 Python
        ints for ``thm41-two-n4`` are about 3.7 MB); a sample's are tuples.
        """
        size = self.chunk_size
        if self.robots.sample is None:
            space = family_space(self.robots.family)
            return [range(i, min(i + size, space)) for i in range(0, space, size)]
        patterns = self.expand_patterns()
        return [
            tuple(patterns[i : i + size]) for i in range(0, len(patterns), size)
        ]

    @property
    def chunk_count(self) -> int:
        """Number of checkpoint chunks."""
        return -(-self.table_count // self.chunk_size)

    def summary(self) -> str:
        """One-line human summary for listings."""
        size = (
            f"all {self.table_count}"
            if self.robots.sample is None
            else f"{self.table_count} sampled"
        )
        sched = "" if self.scheduler == "fsync" else f", scheduler={self.scheduler}"
        dyn = (
            ""
            if self.dynamics == "highly-dynamic"
            else f", dynamics={self.dynamics} (sim, horizon={self.horizon})"
        )
        return (
            f"{self.name} [{self.scenario_id}]: {size} {self.robots.family!r} "
            f"tables, n={self.n}, k={self.robots.k}, starts={self.starts}, "
            f"property={self.prop}{sched}{dyn} — {self.description}"
        )


__all__ = [
    "DYNAMICS_FAMILIES",
    "EXHAUSTIVE_LIMIT",
    "SCENARIO_FORMAT_VERSION",
    "RobotClassSpec",
    "ScenarioSpec",
]
