"""Tests for the vector (NumPy lockstep) backend and the backend registry.

Three contracts:

* **Differential** — the vector kernel is an execution detail: on every
  registered simulation family's first chunk, and on Hypothesis-drawn
  random schedules × tables × schedulers × properties, it tallies
  byte-identically to the scalar packed runner and the object engine
  oracle (including the ``rounds`` work proxy, which the kernel
  reproduces via post-hoc first-failure accounting). Without NumPy the
  same tests compare packed against object.
* **Registry** — one source of backend names shared by the CLI, the
  chunk runners and the campaign runner; on both the simulation and the
  exact-solver path ``auto`` resolves vector → packed by NumPy
  availability, and asking for ``vector`` without NumPy fails loudly.
  The whole module must pass with NumPy absent — vector-only tests
  skip.
* **Hash-neutrality** — a campaign checkpointed under ``packed``
  resumes under ``vector`` into a byte-identical report, and a traced
  vector run emits per-phase spans without changing a report byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_testlib import make_tiny_dynamics_scenario as dyn_spec
from repro import telemetry
from repro.cli import build_parser
from repro.errors import ScenarioError, VerificationError
from repro.graph.topology import RingTopology
from repro.scenarios import (
    CampaignRunner,
    ResultStore,
    get_scenario,
    iter_scenarios,
)
from repro.scenarios.simulate import simulate_chunk, simulation_placements
from repro.types import Chirality
from repro.verification import batch
from repro.verification.backends import (
    AUTO_BACKEND,
    BACKEND_CHOICES,
    SOLVER_BACKENDS,
    check_backend_choice,
    resolve_solver_backend,
    vector_available,
)
from repro.verification.sweeps import family_tables

HAVE_NUMPY = batch.have_numpy()
requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed (vector backend unavailable)"
)


def _simulation_family_names() -> list[str]:
    return [
        spec.name
        for spec in iter_scenarios()
        if spec.dynamics != "highly-dynamic"
    ]


def _find_backend_action(parser):
    for action in parser._actions:  # noqa: SLF001 - introspection on purpose
        if "--backend" in action.option_strings:
            return action
    raise AssertionError("parser has no --backend option")


def _subparser(parser, name):
    for action in parser._actions:  # noqa: SLF001
        if hasattr(action, "choices") and name in (action.choices or {}):
            return action.choices[name]
    raise AssertionError(f"no {name!r} subparser")


class TestRegistry:
    """One backend registry; nothing can drift out of the CLI help."""

    def test_choice_sets(self) -> None:
        assert BACKEND_CHOICES == (AUTO_BACKEND,) + SOLVER_BACKENDS
        assert "vector" in SOLVER_BACKENDS

    def test_campaign_cli_choices_derive_from_registry(self) -> None:
        parser = build_parser()
        campaign = _subparser(parser, "campaign")
        run = _subparser(campaign, "run")
        action = _find_backend_action(run)
        assert tuple(action.choices) == BACKEND_CHOICES
        assert action.default == AUTO_BACKEND

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_solver_cli_choices_derive_from_registry(self, command: str) -> None:
        action = _find_backend_action(_subparser(build_parser(), command))
        assert tuple(action.choices) == BACKEND_CHOICES
        assert action.default == AUTO_BACKEND

    def test_unknown_choice_message_lists_registry(self) -> None:
        with pytest.raises(VerificationError, match="auto"):
            check_backend_choice("simd")
        with pytest.raises(VerificationError, match="backend"):
            resolve_solver_backend("vectorized")

    def test_solver_resolution_tracks_numpy(self) -> None:
        resolved = resolve_solver_backend("auto")
        assert resolved == ("vector" if HAVE_NUMPY else "packed")
        assert resolve_solver_backend("packed") == "packed"
        assert resolve_solver_backend("object") == "object"

    def test_simulation_resolution_tracks_numpy(self, tmp_path) -> None:
        # The campaign runner resolves a schedule-family (simulation)
        # spec's backend exactly as a solver spec's: one registry call.
        runner = CampaignRunner(ResultStore(tmp_path), backend="auto", jobs=1)
        resolved = runner._resolve_backend()  # noqa: SLF001
        assert resolved == ("vector" if HAVE_NUMPY else "packed")
        packed = CampaignRunner(ResultStore(tmp_path), backend="packed", jobs=1)
        assert packed._resolve_backend() == "packed"  # noqa: SLF001


class TestNumpyAbsent:
    """The suite's no-NumPy contract, forced via monkeypatch so it is
    exercised even on hosts where NumPy is installed (the CI no-NumPy
    leg exercises the real thing)."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(batch, "_np", None)

    def test_auto_falls_back_to_packed(self, no_numpy) -> None:
        assert not vector_available()
        assert resolve_solver_backend("auto") == "packed"

    def test_explicit_vector_raises_clearly(self, no_numpy) -> None:
        with pytest.raises(VerificationError, match="requires numpy"):
            resolve_solver_backend("vector")
        spec = dyn_spec()
        with pytest.raises(VerificationError, match="requires numpy"):
            simulate_chunk(spec, spec.chunks()[0], backend="vector")

    def test_auto_chunk_equals_packed_chunk(self, no_numpy) -> None:
        spec = dyn_spec()
        chunk = spec.chunks()[0]
        assert simulate_chunk(spec, chunk, backend="auto") == simulate_chunk(
            spec, chunk, backend="packed"
        )

    def test_campaign_vector_request_is_a_usage_error(
        self, no_numpy, tmp_path: Path
    ) -> None:
        runner = CampaignRunner(
            ResultStore(tmp_path / "s"), backend="vector", jobs=1
        )
        with pytest.raises(ScenarioError, match="requires numpy"):
            runner.run(dyn_spec())

    def test_simulate_batch_raises_without_numpy(self, no_numpy) -> None:
        with pytest.raises(VerificationError, match="requires numpy"):
            batch.simulate_batch(
                RingTopology(4), [[0] * 16], [(Chirality.AGREE,) * 2],
                [(0, 1)], (7,), False, "perpetual",
            )


class TestCampaignSolverPath:
    def test_vector_without_numpy_is_a_usage_error(
        self, monkeypatch, tmp_path
    ) -> None:
        from scenario_testlib import make_tiny_scenario

        monkeypatch.setattr(batch, "_np", None)
        runner = CampaignRunner(
            ResultStore(tmp_path / "s"), backend="vector", jobs=1
        )
        with pytest.raises(ScenarioError, match="requires numpy"):
            runner.run(make_tiny_scenario())

    def test_unknown_backend_rejected_at_construction(self, tmp_path) -> None:
        with pytest.raises(VerificationError, match="backend"):
            CampaignRunner(ResultStore(tmp_path / "s"), backend="simd")


def _assert_backends_agree(spec, chunk) -> None:
    """Every available simulation backend tallies ``chunk`` identically.

    Without NumPy that is packed == object, so the no-NumPy run keeps
    the engine-oracle differential.
    """
    backends = [b for b in SOLVER_BACKENDS if b != "vector" or HAVE_NUMPY]
    tallies = [simulate_chunk(spec, chunk, backend=b) for b in backends]
    assert all(tally == tallies[0] for tally in tallies[1:]), backends


@given(
    family=st.sampled_from(["bernoulli", "markov"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bits=st.lists(
        st.integers(min_value=0, max_value=2**16 - 1),
        min_size=1,
        max_size=4,
    ),
    scheduler=st.sampled_from(["fsync", "ssync"]),
    prop=st.sampled_from(["perpetual", "live"]),
)
@settings(max_examples=25, deadline=None)
def _random_chunks_agree(
    family: str, seed: int, bits: list[int], scheduler: str, prop: str
) -> None:
    """Hypothesis-drawn schedules × tables × schedulers × properties."""
    params = (
        {"p": 0.7}
        if family == "bernoulli"
        else {"p_off": 0.3, "p_on": 0.6}
    )
    spec = dyn_spec(
        dynamics=family,
        dynamics_params=params,
        dynamics_seed=seed,
        scheduler=scheduler,
        prop=prop,
        horizon=20,
    )
    _assert_backends_agree(spec, bits)


class TestVectorDifferential:
    """vector == packed == object on every tally, everywhere (packed ==
    object when NumPy is absent): every backend is an execution detail,
    the invariant that makes campaign records and reports
    backend-portable."""

    @pytest.mark.parametrize("name", _simulation_family_names())
    def test_registered_families_first_chunk_identical(self, name: str) -> None:
        # Every registered simulation family (both schedulers, both
        # properties, n up to 6, memory-2 included), first chunk.
        spec = get_scenario(name)
        _assert_backends_agree(spec, spec.chunks()[0])

    def test_registry_spans_both_schedulers(self) -> None:
        # Guard for the parametrization above: losing a scheduler from
        # the registered simulation families would silently weaken it.
        specs = [
            s for s in iter_scenarios() if s.dynamics != "highly-dynamic"
        ]
        assert {s.scheduler for s in specs} == {"fsync", "ssync"}
        assert any(s.n >= 6 for s in specs)
        assert any(s.robots.family == "two-m2" for s in specs)

    @requires_numpy
    def test_empty_chunk(self) -> None:
        spec = dyn_spec()
        assert simulate_chunk(spec, [], backend="vector") == (0, 0, [], 0)

    @requires_numpy
    def test_malformed_stacks_rejected(self) -> None:
        topology = RingTopology(4)
        vectors = [(Chirality.AGREE, Chirality.AGREE)]
        placements = simulation_placements("well", topology, 2)

        def run(tables):
            return batch.simulate_batch(
                topology, tables, vectors, placements, (7, 7), False,
                "perpetual",
            )

        stack = family_tables("two", [1, 2, 3])
        assert len(run(stack)[0]) == 3
        for bad in (stack[0], stack[:, :15], stack[:, :0]):
            with pytest.raises(VerificationError, match="not \\(B, S·8\\)"):
                run(bad)
        for entry in (2, -1):
            broken = stack.copy()
            broken[1, 7] = entry
            with pytest.raises(VerificationError, match="outside 0..1"):
                run(broken)

    def test_random_schedules_and_tables_agree(self) -> None:
        _random_chunks_agree()


@requires_numpy
class TestCrossBackendResume:
    """The backend is not workload identity: a campaign checkpointed
    under ``packed`` resumes under ``vector`` — into the same store,
    without re-verifying the other backend's chunks — and the final
    report bytes never betray which backend verified which chunk."""

    def test_packed_checkpoint_resumes_under_vector(
        self, tmp_path: Path
    ) -> None:
        spec = dyn_spec()
        reference = CampaignRunner(
            ResultStore(tmp_path / "ref"), backend="packed", jobs=1
        )
        reference.run(spec)
        expected = reference.store.report_path(spec).read_bytes()

        store = ResultStore(tmp_path / "mixed")
        partial = CampaignRunner(store, backend="packed", jobs=1).run(
            spec, max_chunks=1
        )
        assert not partial.status.complete
        resumed = CampaignRunner(store, backend="vector", jobs=1).run(spec)
        assert resumed.status.complete
        assert resumed.chunks_cached == 1  # the packed chunk held
        assert store.report_path(spec).read_bytes() == expected

    def test_vector_only_report_matches_packed_only(
        self, tmp_path: Path
    ) -> None:
        spec = dyn_spec()
        reports = {}
        for backend in ("packed", "vector", "auto"):
            runner = CampaignRunner(
                ResultStore(tmp_path / backend), backend=backend, jobs=1
            )
            runner.run(spec)
            reports[backend] = runner.store.report_path(spec).read_bytes()
        assert reports["packed"] == reports["vector"] == reports["auto"]


@requires_numpy
class TestVectorTelemetry:
    """The vector chunk runner tags its compile/gather/compact phases;
    arming telemetry never changes a report byte."""

    def test_phases_emitted_and_report_neutral(self, tmp_path: Path) -> None:
        spec = dyn_spec()
        plain = CampaignRunner(
            ResultStore(tmp_path / "plain"), backend="vector", jobs=1
        )
        plain.run(spec)
        trace_dir = tmp_path / "trace"
        traced = CampaignRunner(
            ResultStore(tmp_path / "traced"),
            backend="vector",
            jobs=1,
            telemetry=trace_dir,
        )
        traced.run(spec)
        assert (
            traced.store.report_path(spec).read_bytes()
            == plain.store.report_path(spec).read_bytes()
        )
        events = telemetry.load_trace(trace_dir)
        names = {event["name"] for event in events}
        assert {"phase.compile", "phase.gather", "phase.compact"} <= names
        # The campaign context records the *resolved* backend.
        campaign_spans = [e for e in events if e["name"] == "campaign"]
        assert campaign_spans
        assert all(
            e.get("attrs", {}).get("backend") == "vector"
            for e in campaign_spans
        )
        summary = telemetry.summarize(events)
        rendered = telemetry.render_summary(summary)
        assert "phase.gather" in rendered

    def test_auto_context_records_resolved_backend(
        self, tmp_path: Path
    ) -> None:
        trace_dir = tmp_path / "trace"
        runner = CampaignRunner(
            ResultStore(tmp_path / "s"),
            backend="auto",
            jobs=1,
            telemetry=trace_dir,
        )
        runner.run(dyn_spec())
        events = telemetry.load_trace(trace_dir)
        contexts = {
            e["attrs"]["backend"]
            for e in events
            if "backend" in e.get("attrs", {})
        }
        assert contexts == {"vector"}
