"""Dynamic-graph substrate: topologies, evolving graphs, schedules, journeys.

This subpackage implements the environment half of the paper's model
(Section 2.1): static footprints (rings and chains), evolving graphs in the
sense of Xuan–Ferreira–Jarry, a library of oblivious edge schedules, and the
temporal-graph toolbox (underlying graphs, recurrent edges, journeys,
connected-over-time checks) used by the analysis and verification layers.
"""

from repro._lazy import lazy_exports

# Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "ChainTopology": "repro.graph.topology",
    "RingTopology": "repro.graph.topology",
    "Topology": "repro.graph.topology",
    "EvolvingGraph": "repro.graph.evolving",
    "ExplicitSchedule": "repro.graph.evolving",
    "FunctionSchedule": "repro.graph.evolving",
    "RecordedEvolvingGraph": "repro.graph.evolving",
    "restrict": "repro.graph.evolving",
    "AtMostOneAbsentSchedule": "repro.graph.schedules",
    "BernoulliSchedule": "repro.graph.schedules",
    "CompositeSchedule": "repro.graph.schedules",
    "EventuallyMissingEdgeSchedule": "repro.graph.schedules",
    "IntermittentEdgeSchedule": "repro.graph.schedules",
    "MarkovSchedule": "repro.graph.schedules",
    "PeriodicSchedule": "repro.graph.schedules",
    "StaticSchedule": "repro.graph.schedules",
    "SwitchAfterSchedule": "repro.graph.schedules",
    "TIntervalConnectedSchedule": "repro.graph.schedules",
    "chain_like_schedule": "repro.graph.schedules",
    "eventual_underlying_edges": "repro.graph.properties",
    "is_connected_edge_set": "repro.graph.properties",
    "is_connected_over_time": "repro.graph.properties",
    "one_edge": "repro.graph.properties",
    "recurrent_edges": "repro.graph.properties",
    "underlying_edges": "repro.graph.properties",
    "foremost_journey": "repro.graph.journeys",
    "journey_exists": "repro.graph.journeys",
    "temporal_eccentricity": "repro.graph.journeys",
    "temporal_reachability": "repro.graph.journeys",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = list(_EXPORTS)
