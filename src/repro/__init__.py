"""repro — perpetual exploration of highly dynamic (connected-over-time) rings.

A full reproduction of:

    Marjorie Bournat, Swan Dubois, Franck Petit.
    *Computability of Perpetual Exploration in Highly Dynamic Rings.*
    ICDCS 2017 (arXiv:1612.05767).

The library provides, as importable building blocks:

* the evolving-graph model and a schedule library
  (:mod:`repro.graph`);
* the anonymous-robot Look–Compute–Move model, the paper's three
  algorithms ``PEF_3+`` / ``PEF_2`` / ``PEF_1``, baselines and
  transition-table machines (:mod:`repro.robots`);
* FSYNC and SSYNC simulation engines with traces and observers
  (:mod:`repro.sim`);
* the impossibility constructions as adaptive adversaries
  (:mod:`repro.adversary`);
* an exhaustive game solver deciding perpetual exploration on concrete
  instances and synthesizing replayable trap certificates
  (:mod:`repro.verification`);
* analysis, text visualization and the paper's experiment harnesses
  (:mod:`repro.analysis`, :mod:`repro.viz`, :mod:`repro.experiments`);
* a scenario registry and a persistent, resumable campaign runner over
  the verification kernel (:mod:`repro.scenarios`).

Quickstart::

    from repro import RingTopology, PEF3Plus, run_fsync, VisitTracker
    from repro.graph import EventuallyMissingEdgeSchedule

    ring = RingTopology(8)
    schedule = EventuallyMissingEdgeSchedule(ring, edge=3, vanish_time=50)
    tracker = VisitTracker()
    run_fsync(ring, schedule, PEF3Plus(), positions=[0, 3, 6],
              rounds=2000, observers=[tracker])
    assert tracker.cover_time is not None

The names below resolve on first access (:mod:`repro._lazy`), so
importing one submodule never executes the whole package.
"""

from repro._lazy import lazy_exports

# Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "AGREE": "repro.types",
    "CCW": "repro.types",
    "CW": "repro.types",
    "DISAGREE": "repro.types",
    "LEFT": "repro.types",
    "RIGHT": "repro.types",
    "Chirality": "repro.types",
    "Direction": "repro.types",
    "GlobalDirection": "repro.types",
    "AlgorithmError": "repro.errors",
    "CertificateError": "repro.errors",
    "ConfigurationError": "repro.errors",
    "ReproError": "repro.errors",
    "ScheduleError": "repro.errors",
    "TopologyError": "repro.errors",
    "VerificationError": "repro.errors",
    "ChainTopology": "repro.graph",
    "EvolvingGraph": "repro.graph",
    "RingTopology": "repro.graph",
    "Topology": "repro.graph",
    "PEF1": "repro.robots",
    "PEF2": "repro.robots",
    "PEF3Plus": "repro.robots",
    "Algorithm": "repro.robots.algorithms",
    "get_algorithm": "repro.robots.algorithms",
    "registry": "repro.robots.algorithms",
    "Configuration": "repro.sim",
    "ExecutionTrace": "repro.sim",
    "RunResult": "repro.sim",
    "TowerLogger": "repro.sim",
    "VisitTracker": "repro.sim",
    "run_fsync": "repro.sim",
    "run_ssync": "repro.sim",
    "OscillationTrap": "repro.adversary",
    "SsyncBlocker": "repro.adversary",
    "TheoremPhaseTrap": "repro.adversary",
    "WindowConfinementAdversary": "repro.adversary",
    "TrapCertificate": "repro.verification",
    "synthesize_trap": "repro.verification",
    "validate_certificate": "repro.verification",
    "verify_exploration": "repro.verification",
    "exploration_report": "repro.analysis",
    "recurrence_report": "repro.analysis",
    "tower_report": "repro.analysis",
    "CampaignRunner": "repro.scenarios",
    "ResultStore": "repro.scenarios",
    "RobotClassSpec": "repro.scenarios",
    "ScenarioSpec": "repro.scenarios",
    "get_scenario": "repro.scenarios",
    "scenario_names": "repro.scenarios",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__version__ = "1.1.0"

__all__ = ["__version__", *_EXPORTS]
