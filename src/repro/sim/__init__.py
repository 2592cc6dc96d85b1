"""Round-based simulation engines (FSYNC and SSYNC) with full tracing.

Implements the execution model of the paper's Section 2.3: synchronous
Look–Compute–Move rounds over an evolving graph, with configurations,
towers, and traces matching the vocabulary of the proofs.
"""

from repro.sim.config import Configuration, Observation
from repro.sim.trace import ExecutionTrace, RoundRecord
from repro.verification.families import SCHEDULERS
from repro.sim.engine import RunResult, run_fsync
from repro.sim.observers import (
    EdgeRecorder,
    Observer,
    TowerLogger,
    VisitTracker,
)
from repro.sim.semi_sync import (
    ActivationScheduler,
    EveryRobotActivation,
    ListActivation,
    RoundRobinActivation,
    run_ssync,
)

__all__ = [
    "Configuration",
    "Observation",
    "RoundRecord",
    "ExecutionTrace",
    "RunResult",
    "run_fsync",
    "Observer",
    "VisitTracker",
    "TowerLogger",
    "EdgeRecorder",
    "ActivationScheduler",
    "EveryRobotActivation",
    "RoundRobinActivation",
    "ListActivation",
    "run_ssync",
    "SCHEDULERS",
]
