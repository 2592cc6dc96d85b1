"""Experiment harnesses: everything the paper's evaluation implies.

* :mod:`repro.experiments.battery` — the standard schedule battery each
  positive result is exercised against;
* :mod:`repro.experiments.table1` — the Table 1 reproduction harness
  (battery evidence + exact solver verdicts per row);
* :mod:`repro.experiments.figures` — Figure 2 (two-robot phase trap) and
  Figure 3 (single-robot oscillation trap) experiments;
* :mod:`repro.experiments.figure1` — the Lemma 4.1 / Figure 1 symmetric
  8-node construction with machine-checked proof claims;
* :mod:`repro.experiments.cover_time` — quantitative cover-time and
  revisit-gap sweeps (extension X1);
* :mod:`repro.experiments.ill_initiated` — the towerless-assumption probe
  (X6); its arbitrary-start quantifier is shared with the scenario
  registry's ill-initiated campaign families (:mod:`repro.scenarios`).
"""

from repro._lazy import lazy_exports

# Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "BatteryOutcome": "repro.experiments.battery",
    "run_battery": "repro.experiments.battery",
    "schedule_battery": "repro.experiments.battery",
    "Table1Row": "repro.experiments.table1",
    "render_table1": "repro.experiments.table1",
    "reproduce_table1": "repro.experiments.table1",
    "Figure2Outcome": "repro.experiments.figures",
    "Figure3Outcome": "repro.experiments.figures",
    "figure2_experiment": "repro.experiments.figures",
    "figure3_experiment": "repro.experiments.figures",
    "Lemma41Outcome": "repro.experiments.figure1",
    "Lemma41Scenario": "repro.experiments.figure1",
    "default_scenarios": "repro.experiments.figure1",
    "run_lemma41_construction": "repro.experiments.figure1",
    "CoverTimePoint": "repro.experiments.cover_time",
    "cover_time_sweep": "repro.experiments.cover_time",
    "IllInitiatedOutcome": "repro.experiments.ill_initiated",
    "all_placements_with_towers": "repro.experiments.ill_initiated",
    "probe_ill_initiated": "repro.experiments.ill_initiated",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = list(_EXPORTS)
