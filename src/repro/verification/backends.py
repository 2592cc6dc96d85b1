"""The one registry of execution backends.

Every layer that lets a caller pick an execution substrate — the CLI
(``campaign run --backend``, ``verify --backend``, ``sweep --backend``),
:func:`repro.scenarios.simulate.simulate_chunk`,
:func:`repro.verification.sweeps.sweep_chunk` and
:class:`repro.scenarios.campaign.CampaignRunner` — derives its choices
from this module, so a new backend cannot drift out of a help text or an
error message.

Both dispatch paths offer the same three backends, fastest first
(:data:`SOLVER_BACKENDS`), and resolve a choice the same way (one
:func:`resolve_solver_backend`):

* on the **solver** path (the exact game solver over the highly-dynamic
  adversary): ``vector`` (dense NumPy lockstep over a whole chunk of
  tables, :mod:`repro.verification.batch_solver`), ``packed`` (flat int
  tables) and ``object`` (the engine oracle,
  :class:`~repro.verification.product.ProductSystem`);
* on the **simulation** path (the bounded-horizon schedule-dynamics
  runner): ``vector`` (NumPy structure-of-arrays lockstep over a whole
  chunk, :mod:`repro.verification.batch`), ``packed`` and ``object``.

``auto`` (:data:`AUTO_BACKEND`) is the CLI-facing default: it resolves
to the fastest backend *available on this host* for the dispatch path at
hand — vector → packed → object on either path (NumPy is an optional
dependency). Backend choice is an execution detail, never workload
identity: all backends tally byte-identically and scenario hashes,
chunk records and report bytes never record which one ran.
"""

from __future__ import annotations

from repro.errors import VerificationError

SOLVER_BACKENDS = ("vector", "packed", "object")
"""Backends of both dispatch paths, fastest first."""

AUTO_BACKEND = "auto"
"""Sentinel choice: resolve to the fastest available backend."""

BACKEND_CHOICES = (AUTO_BACKEND,) + SOLVER_BACKENDS
"""Every name a caller may pass (CLI ``--backend`` choices)."""


def vector_available() -> bool:
    """True when the ``vector`` backend's NumPy dependency is usable.

    Answered without importing NumPy (see
    :func:`repro.verification.batch.have_numpy`): resolving a backend
    must stay cheap for verbs that never compute.
    """
    from repro.verification import batch

    return batch.have_numpy()


def check_backend_choice(backend: str) -> str:
    """Validate a backend *choice* (``auto`` allowed, not yet resolved)."""
    if backend not in BACKEND_CHOICES:
        raise VerificationError(
            f"unknown backend {backend!r}; choose from {BACKEND_CHOICES}"
        )
    return backend


def check_solver_backend(backend: str) -> str:
    """Validate a concrete backend name (``auto`` already resolved)."""
    if backend not in SOLVER_BACKENDS:
        raise VerificationError(
            f"unknown backend {backend!r}; choose from {SOLVER_BACKENDS}"
        )
    return backend


def resolve_solver_backend(backend: str) -> str:
    """Resolve a backend choice for either dispatch path.

    ``auto`` picks ``vector`` when NumPy is usable and ``packed``
    otherwise; asking for ``vector`` explicitly without NumPy is an
    error (the caller wanted that substrate, not a silent fallback).
    Only availability is checked here — NumPy itself is imported later,
    by :func:`import_backend` or the first vector kernel call.
    """
    if backend == AUTO_BACKEND:
        return "vector" if vector_available() else "packed"
    if backend == "vector" and not vector_available():
        raise VerificationError(
            "backend 'vector' requires numpy, which is not installed; "
            "pass backend='auto' to fall back to 'packed' automatically"
        )
    return check_solver_backend(backend)


def import_backend(backend: str) -> None:
    """Import a resolved backend's optional dependency now.

    Dispatchers call this once work is pending and before they fork
    workers, so NumPy is imported once in the parent and every forked
    worker inherits it instead of importing it again. A NumPy that is
    found but fails to import raises the same ``requires numpy`` error
    as a missing one.
    """
    if backend == "vector":
        from repro.verification import batch

        batch.require_numpy()
