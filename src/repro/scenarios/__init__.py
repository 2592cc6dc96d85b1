"""Scenario registry and persistent campaign runner.

This subpackage turns the fast verification kernel *and* the simulation
engines into a service: a workload is a declarative, content-hashed
:class:`ScenarioSpec` (:mod:`~repro.scenarios.spec`); named workload
families live in a registry (:mod:`~repro.scenarios.registry`); and a
campaign executes a scenario chunk-by-chunk against an append-only
result store with checkpointing, resume and dedup
(:mod:`~repro.scenarios.store`, :mod:`~repro.scenarios.campaign`).
``highly-dynamic`` scenarios are solved exactly by the game solver;
schedule-family scenarios pin a concrete evolving graph
(:mod:`~repro.scenarios.dynamics`) and are executed by bounded-horizon
simulation (:mod:`~repro.scenarios.simulate`) on the same store. Both
paths run on a packed fast backend (the compiled-tables core of
:mod:`repro.verification.compiled`) or the object oracle, with
byte-identical tallies either way.

Campaigns are *crash-resilient*: chunks run under a supervisor with
per-chunk deadlines, dead-worker respawn, backed-off retries and
poisoned-chunk quarantine (:class:`RetryPolicy`); a corrupt checkpoint
log is salvageable (:meth:`ResultStore.recover` — ``campaign fsck``);
and the whole layer is exercised by a deterministic fault injector
(:mod:`~repro.scenarios.faults`). See ``docs/robustness.md``.

The CLI surface is
``repro-rings campaign list|run|status|report|fsck|retry-failed``; the
same machinery is importable::

    from repro.scenarios import CampaignRunner, ResultStore, get_scenario

    runner = CampaignRunner(ResultStore("campaigns"))
    outcome = runner.run(get_scenario("thm51-single-n3"))
    assert outcome.status.all_trapped
"""

from repro._lazy import lazy_exports

# Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "DEFAULT_HORIZON": "repro.scenarios.dynamics",
    "RANDOMIZED_FAMILIES": "repro.scenarios.dynamics",
    "SCHEDULE_PARAMS": "repro.scenarios.dynamics",
    "build_schedule": "repro.scenarios.dynamics",
    "schedule_masks": "repro.scenarios.dynamics",
    "validate_dynamics": "repro.scenarios.dynamics",
    "DYNAMICS_FAMILIES": "repro.scenarios.spec",
    "EXHAUSTIVE_LIMIT": "repro.scenarios.spec",
    "SCENARIO_FORMAT_VERSION": "repro.scenarios.spec",
    "RobotClassSpec": "repro.scenarios.spec",
    "ScenarioSpec": "repro.scenarios.spec",
    "simulate_chunk": "repro.scenarios.simulate",
    "simulation_placements": "repro.scenarios.simulate",
    "get_scenario": "repro.scenarios.registry",
    "iter_scenarios": "repro.scenarios.registry",
    "register_scenario": "repro.scenarios.registry",
    "scenario_names": "repro.scenarios.registry",
    "smallest_scenario": "repro.scenarios.registry",
    "FAULT_PLAN_ENV_VAR": "repro.scenarios.faults:ENV_VAR",
    "KILL_EXIT_CODE": "repro.scenarios.faults",
    "FaultPlan": "repro.scenarios.faults",
    "RecoveryReport": "repro.scenarios.store",
    "ResultStore": "repro.scenarios.store",
    "chunk_digest": "repro.scenarios.store",
    "is_failure_record": "repro.scenarios.store",
    "CampaignRunner": "repro.scenarios.campaign",
    "CampaignRunOutcome": "repro.scenarios.campaign",
    "CampaignStatus": "repro.scenarios.campaign",
    "RetryPolicy": "repro.scenarios.executor",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = list(_EXPORTS)
