"""Exhaustive verification: exact Table 1 verdicts on concrete instances.

The paper's Table 1 claims are universally quantified ("no deterministic
algorithm…", "…any connected-over-time ring"). For a *fixed* finite-state
algorithm on a *fixed* ring size, perpetual exploration against the
strongest adversary is decidable — the interaction is a game on the finite
product of robot positions, robot states and adversarial edge choices.
This subpackage decides it, through three mutually-checking layers:

* :mod:`repro.verification.product` — the engine oracle: the object-level
  product transition system, every transition one call of the very same
  :func:`repro.sim.engine.step_fsync` the simulator uses, and never a call
  into the packed kernel it checks;
* :mod:`repro.verification.compiled` — the compiled-tables core: product
  states as single ints, edge/activation sets as bitmasks, the whole
  Look–Compute logic folded into flat integer tables, shared with the
  simulation chunk runner (:mod:`repro.scenarios.simulate`);
* :mod:`repro.verification.batch` — the simulation vector backend:
  whole chunks of simulated tables stepped in NumPy lockstep
  (structure-of-arrays rows, one gather per robot per round); NumPy is
  optional, so this backend degrades to unavailable rather than making
  it a hard dependency;
* :mod:`repro.verification.batch_solver` — the solver vector backend:
  whole chunks of tables *game-solved* in NumPy lockstep (dense product
  spaces, bit-parallel reachability and winning-SCC detection), with the
  same optional-NumPy contract and bit-identical verdicts;
* :mod:`repro.verification.backends` — the one registry of backend
  names (one axis for both dispatch paths, ``auto`` resolution) that the
  CLI, the chunk runners and the campaign runner all derive from;
* :mod:`repro.verification.kernel` — the packed-state kernel: the game
  solver's consumer of the compiled tables, adding adversarial move
  enumeration and labeled reachability. The scalar fast substrate;
  differentially tested against the other two layers;
* :mod:`repro.verification.game` — the solver: the adversary wins iff,
  from some well-initiated configuration, some reachable SCC of the
  target-node-avoiding subgraph leaves at most one ring edge never
  present — and, under ``scheduler="ssync"``, activates every robot
  (fairness; see the soundness/completeness argument in the module
  docstring). Emits replayable lasso certificates on wins; runs on
  any backend (``backend="vector" | "packed" | "object"``, or ``"auto"``)
  and either scheduler (``"fsync" | "ssync"``);
* :mod:`repro.verification.certificates` — certificate datatypes and the
  *independent* replay validator (simulator-checked, period-exact);
* :mod:`repro.verification.enumeration` — the scenario specs of whole
  algorithm classes (e.g. all 256 memoryless single-robot algorithms);
* :mod:`repro.verification.sweeps` — the one sweep engine: runs a
  class's spec as chunks settled by the campaign runner's chunk
  executor (:mod:`repro.scenarios.executor`), merged deterministically;
* :mod:`repro.verification.families` — the table families and run
  vocabularies as plain data (stdlib-only), which scenario specs
  validate against without loading any of the above.
"""

from repro._lazy import lazy_exports

# Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "AUTO_BACKEND": "repro.verification.backends",
    "BACKEND_CHOICES": "repro.verification.backends",
    "SOLVER_BACKENDS": "repro.verification.backends",
    "resolve_solver_backend": "repro.verification.backends",
    "vector_available": "repro.verification.backends",
    "TrapCertificate": "repro.verification.certificates",
    "certificate_schedule": "repro.verification.certificates",
    "validate_certificate": "repro.verification.certificates",
    "ExplorationVerdict": "repro.verification.game",
    "check_property": "repro.verification.game",
    "synthesize_trap": "repro.verification.game",
    "verify_exploration": "repro.verification.game",
    "CompiledTables": "repro.verification.compiled",
    "PROPERTIES": "repro.verification.families",
    "START_POLICIES": "repro.verification.families",
    "TABLE_FAMILIES": "repro.verification.families",
    "available_cpus": "repro.verification.families",
    "sample_table_patterns": "repro.verification.families",
    "PackedKernel": "repro.verification.kernel",
    "check_scheduler": "repro.verification.kernel",
    "ProductSystem": "repro.verification.product",
    "SysState": "repro.verification.product",
    "SweepResult": "repro.verification.enumeration",
    "sweep_spec": "repro.verification.enumeration",
    "run_table_sweep": "repro.verification.sweeps",
    "sweep_chunk": "repro.verification.sweeps",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = list(_EXPORTS)
