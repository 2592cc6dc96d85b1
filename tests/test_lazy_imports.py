"""Import on demand: read-only verbs stay solver-free, exports resolve lazily.

A listing, a status, a report or a cache-hit ``campaign run`` loads only
the spec, registry, store and report code: never the solver, the
simulator, ``multiprocessing`` or NumPy. NumPy and the chunk runner are
loaded the first time chunks are pending (in the parent, before any
worker forks), never at module load; the package ``__init__``s resolve
their public names on first access. These tests pin both halves of that
contract, and the no-NumPy contract it must not weaken: an explicit
``--backend vector`` without NumPy stays a usage error even when every
chunk is cached.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.errors import ScenarioError
from repro.scenarios import CampaignRunner, ResultStore, get_scenario
from repro.verification import batch
from repro.verification.backends import resolve_solver_backend

SRC = Path(repro.__file__).resolve().parent.parent

# Runs each argv (one JSON list per command-line argument) through
# repro.cli.main in one process; prints, per verb, its exit code and the
# modules loaded by then.
PROBE = """
import json, sys
from repro.cli import main
seen = []
for argv in sys.argv[1:]:
    code = main(json.loads(argv))
    seen.append([code, sorted(sys.modules)])
print(json.dumps(seen))
"""

SOLVER_FAMILY = "thm51-single-n3"
SIMULATION_FAMILY = "bernoulli-two-n4"

# What reading a store must never load: the solver and simulation
# stack, and the executor's process machinery.
FORBIDDEN = frozenset(
    {
        "repro.verification.game",
        "repro.verification.sweeps",
        "repro.verification.enumeration",
        "repro.verification.batch_solver",
        "repro.verification.kernel",
        "repro.verification.compiled",
        "repro.verification.product",
        "repro.verification.certificates",
        "repro.scenarios.simulate",
        "repro.sim.engine",
        "multiprocessing",
        "numpy",
    }
)

requires_numpy = pytest.mark.skipif(
    not batch.have_numpy(), reason="numpy not installed"
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )


def run_probe(*commands: list[str]) -> list[tuple[int, set[str]]]:
    """``(exit code, modules loaded by then)`` per command, in one process."""
    result = run_python("-c", PROBE, *(json.dumps(argv) for argv in commands))
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    return [(code, set(modules)) for code, modules in seen]


@pytest.fixture(scope="module")
def cached_store(tmp_path_factory) -> Path:
    """A store holding complete runs of one family per dispatch path."""
    root = tmp_path_factory.mktemp("cached")
    runner = CampaignRunner(ResultStore(root), backend="packed", jobs=1)
    for name in (SOLVER_FAMILY, SIMULATION_FAMILY):
        assert runner.run(get_scenario(name)).status.complete
    return root


class TestReadOnlyVerbsStayNumpyFree:
    """No NumPy, and no other module of :data:`FORBIDDEN`, either."""

    def test_import_cli(self) -> None:
        result = run_python(
            "-c",
            "import repro.cli, sys, json; print(json.dumps(sorted(sys.modules)))",
        )
        assert result.returncode == 0, result.stderr
        assert not FORBIDDEN & set(json.loads(result.stdout))

    def test_listing_status_report_and_cache_hit_run(
        self, cached_store: Path
    ) -> None:
        store = ["--store", str(cached_store)]
        commands = [["algos"], ["campaign", "list"]]
        for name in (SOLVER_FAMILY, SIMULATION_FAMILY):
            commands += [
                ["campaign", "status", name, *store],
                ["campaign", "report", name, *store],
                ["campaign", "run", name, *store],
                # A deadline forks attempts, but only pending ones.
                ["campaign", "run", name, *store, "--chunk-timeout", "5"],
            ]
        for argv, (code, modules) in zip(commands, run_probe(*commands)):
            assert code == 0, argv
            assert not FORBIDDEN & modules, argv


class TestPendingChunksLoadTheRunnerInTheParent:
    """The chunk runner's stack is imported before the workers fork.

    Otherwise every forked worker imports the solver or simulator again,
    once per chunk attempt.
    """

    @pytest.mark.parametrize(
        ("name", "runner"),
        [
            (SOLVER_FAMILY, "repro.verification.sweeps"),
            (SIMULATION_FAMILY, "repro.scenarios.simulate"),
        ],
    )
    def test_fresh_supervised_run(
        self, tmp_path: Path, name: str, runner: str
    ) -> None:
        argv = ["campaign", "run", name, "--store", str(tmp_path),
                "--backend", "packed", "--jobs", "2"]
        [(code, modules)] = run_probe(argv)
        assert code == 0
        assert runner in modules


@requires_numpy
class TestVectorWorkLoadsNumpyInTheParent:
    def test_fresh_vector_campaign(self, tmp_path: Path) -> None:
        argv = ["campaign", "run", SOLVER_FAMILY, "--store", str(tmp_path),
                "--backend", "vector", "--jobs", "2"]
        [(code, modules)] = run_probe(argv)
        assert code == 0 and "numpy" in modules

    def test_pooled_sweep(self) -> None:
        argv = ["sweep", "--robots", "1", "--n", "3", "--jobs", "2"]
        [(code, modules)] = run_probe(argv)
        assert code == 0 and "numpy" in modules

    def test_vector_verify_leaves_numpy_ma_unloaded(self) -> None:
        # np.unique without return_index imports numpy.ma (NumPy 2).
        argv = ["verify", "--algo", "pef3+", "--n", "5", "--k", "3",
                "--backend", "vector"]
        [(code, modules)] = run_probe(argv)
        assert code == 0 and "numpy" in modules
        assert "numpy.ma" not in modules


class TestNoNumpyContract:
    def test_cached_campaign_still_refuses_vector(
        self, cached_store: Path, monkeypatch, capsys
    ) -> None:
        monkeypatch.setattr(batch, "_np", None)
        for name in (SOLVER_FAMILY, SIMULATION_FAMILY):
            runner = CampaignRunner(
                ResultStore(cached_store), backend="vector", jobs=1
            )
            with pytest.raises(ScenarioError, match="requires numpy"):
                runner.run(get_scenario(name))
            argv = ["campaign", "run", name, "--store", str(cached_store),
                    "--backend", "vector"]
            assert cli_main(argv) == 2
            assert "requires numpy" in capsys.readouterr().err

    def test_numpy_found_but_broken_is_a_usage_error(
        self, tmp_path: Path, monkeypatch, capsys
    ) -> None:
        # Found by the import system, but its import fails.
        monkeypatch.setattr(batch, "_np", batch._UNLOADED)
        monkeypatch.setattr(batch, "_numpy_installed", lambda: True)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert batch.have_numpy()
        assert resolve_solver_backend("auto") == "vector"
        argv = ["verify", "--algo", "pef1", "--n", "3", "--k", "1",
                "--backend", "vector"]
        assert cli_main(argv) == 2
        assert "requires numpy" in capsys.readouterr().err
        runner = CampaignRunner(
            ResultStore(tmp_path), backend="vector", jobs=2
        )
        with pytest.raises(ScenarioError, match="requires numpy"):
            runner.run(get_scenario(SOLVER_FAMILY))
        assert not batch.have_numpy()


# In a fresh interpreter, so nothing has been resolved (and cached in the
# package namespace) before dir() is asked.
EXPORTS_PROBE = """
import importlib, sys
package = importlib.import_module(sys.argv[1])
listed = dir(package)
assert not [name for name in package.__all__ if name not in listed]
assert all(getattr(package, name) is not None for name in package.__all__)
namespace = {}
exec(f"from {sys.argv[1]} import *", namespace)
assert set(package.__all__) <= set(namespace)
assert not hasattr(package, "no_such_export")
"""


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.graph",
        "repro.verification",
        "repro.scenarios",
        "repro.experiments",
    ],
)
def test_lazy_exports_resolve_list_and_star_import(package: str) -> None:
    result = run_python("-c", EXPORTS_PROBE, package)
    assert result.returncode == 0, result.stderr
