"""Task fingerprints and the error type that carries them.

A worker-side failure used to surface as a bare pool traceback with no
indication of *which* simulation died.  The task loop's chunk body tags
failures with the task's ``(scenario, attack, seed)`` fingerprint so an
operator (or the quarantine report) can re-run the offending simulation
in isolation.
"""

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.strategies import AttackStrategy
    from repro.injection.engine import SimulationConfig


def _scenario_name(scenario) -> str:
    if isinstance(scenario, str):
        return scenario
    return getattr(scenario, "name", repr(scenario))


def task_fingerprint(
    config: "SimulationConfig", strategy: Optional["AttackStrategy"] = None
) -> str:
    """The ``(scenario, attack, seed)`` identity of one simulation task."""
    attack = config.attack_type.value if config.attack_type is not None else "none"
    strategy_name = getattr(strategy, "name", "none") if strategy is not None else "none"
    return (
        f"scenario={_scenario_name(config.scenario)} attack={attack} "
        f"seed={config.seed} distance={config.initial_distance} "
        f"strategy={strategy_name}"
    )


class TaskExecutionError(RuntimeError):
    """A simulation task failed; the message names the task's fingerprint.

    Raised in pool workers and unpickled in the parent, so it must
    round-trip through ``__reduce__`` with its ``fingerprint`` and
    ``fingerprints`` attributes intact.
    """

    def __init__(self, message: str, fingerprint: str = "", fingerprints=()):
        super().__init__(message)
        self.fingerprint = fingerprint
        #: Every candidate fingerprint of a batched failure (empty for
        #: single-task failures).  Quarantine reports and the journal
        #: cross-reference these, so none may be dropped.
        self.fingerprints = tuple(fingerprints)

    def __reduce__(self):
        return (TaskExecutionError, (self.args[0], self.fingerprint, self.fingerprints))

    @classmethod
    def wrap(cls, fingerprint: str, error: BaseException) -> "TaskExecutionError":
        return cls(
            f"simulation task [{fingerprint}] failed: "
            f"{type(error).__name__}: {error}",
            fingerprint,
        )

    @classmethod
    def wrap_batch(cls, fingerprints, error: BaseException) -> "TaskExecutionError":
        """A batched chunk failed; name every candidate task.

        The full fingerprint list stays in the message (and in
        :attr:`fingerprints`): quarantined tasks are exactly what the
        event journal must cross-reference, so truncating to "the first
        few" would hide the one that matters.
        """
        fingerprints = list(fingerprints)
        shown = "; ".join(fingerprints)
        return cls(
            f"batched chunk of {len(fingerprints)} tasks failed "
            f"[{shown}]: {type(error).__name__}: {error}",
            fingerprints[0] if fingerprints else "",
            fingerprints,
        )
