"""The scenario specs of the theorems' algorithm classes.

The paper's impossibility theorems quantify over *all* deterministic
algorithms. For bounded-memory classes this is a finite quantifier, and we
can discharge it by brute force. :func:`sweep_spec` names such a class
as a :class:`~repro.scenarios.spec.ScenarioSpec`, the plan a campaign
runs too, and :func:`repro.verification.sweeps.run_table_sweep` settles
it:

* ``"single"`` — all ``2**8`` memoryless single-robot algorithms on an
  ``n >= 3`` ring. With one robot, chirality is a relabeling of
  left/right, and the enumerated class is closed under that relabeling,
  so checking one chirality per table covers the class-level claim.
  Theorem 5.1 predicts: all of them fail.
* ``"two"`` — the ``2**16`` memoryless two-robot algorithms on an
  ``n >= 4`` ring (exhaustive or uniformly sampled). The enumerated class
  is closed under the left/right relabeling too, so the all-AGREE
  chirality vector is checked first and mixed vectors only as a
  fallback. Theorem 4.1 predicts: all fail.
* ``"two-m2"`` — a seeded sample of the ``4**32 = 2**64`` memory-2
  two-robot algorithms, far past exhaustion. Theorem 4.1 quantifies over
  bounded memory too, so it predicts every sampled member fails.

Under ``scheduler="ssync"`` an all-trapped class machine-checks the
semi-synchronous impossibility of Di Luna et al. as well (every FSYNC
trap is in particular a fair SSYNC one). The sweep's result is identical
— bit for bit, explorer order included — for every (backend, jobs)
combination, and equals the campaign report of the same spec.

A sweep's value is the *shape* of its result: ``trapped == total`` is an
exhaustive finite-domain confirmation of the paper's universally
quantified claim, something no sampling of schedules could give.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import VerificationError
from repro.scenarios.spec import RobotClassSpec, ScenarioSpec
from repro.verification.families import (
    DEFAULT_RNG_SEED,
    check_family,
    sample_table_patterns,
)
from repro.verification.sweeps import SweepResult

_CLASS_NAMES = {
    "single": "memoryless 1-robot",
    "two": "memoryless 2-robot",
    "two-m2": "memory-2 2-robot",
}

_THEOREMS = {1: "5.1", 2: "4.1"}
"""The impossibility theorem of each robot count; it holds for n >= k+2."""


def sweep_spec(
    family: str,
    n: int,
    sample: Optional[int] = None,
    rng_seed: int = DEFAULT_RNG_SEED,
    scheduler: str = "fsync",
) -> ScenarioSpec:
    """The scenario of one theorem's class: ``family`` tables on the ``n``-ring.

    ``sample=None`` enumerates the whole family; an integer draws that
    many distinct tables with the seeded sampler (same tables for the
    same seed on any machine or worker count). ``n`` must be where the
    family's theorem applies, ``n >= k + 2``.
    """
    data = check_family(family)
    if n < data.k + 2:
        raise VerificationError(
            f"Theorem {_THEOREMS[data.k]} concerns rings of size "
            f">= {data.k + 2}, got n={n}"
        )
    if sample is not None and not 1 <= sample <= data.space:
        raise VerificationError(
            f"sample must be in 1..{data.space}, got {sample}"
        )
    size = "all" if sample is None else f"{sample} sampled"
    description = f"{size} {_CLASS_NAMES[family]} algorithms"
    if scheduler != "fsync":
        description += f" [{scheduler}]"
    return ScenarioSpec(
        name=f"sweep-{family}-n{n}",
        description=description,
        robots=RobotClassSpec(family, sample, rng_seed),
        n=n,
        scheduler=scheduler,
    )


__all__ = [
    "SweepResult",
    "sample_table_patterns",
    "sweep_spec",
]
