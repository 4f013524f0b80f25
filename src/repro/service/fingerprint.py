"""Canonical content-addressed fingerprints for simulation tasks.

A *task* — one ``(SimulationConfig, AttackStrategy)`` pair — is a pure
function of its configuration and seed: every execution path in the repo
(sequential, pooled, lockstep-batched, supervised) produces bit-identical
:class:`~repro.analysis.metrics.RunResult` records for the same task.
That purity is what makes a shared run cache sound, and this module
defines the cache key: a SHA-256 digest over

* the **JSON-exact canonical serialization** of the task — the resolved
  :class:`~repro.sim.scenarios.Scenario` spec (so ``"S1"`` and the
  equivalent spec object hash identically), every remaining
  :class:`~repro.injection.engine.SimulationConfig` field, and the
  strategy's registered identity (class + constructor parameters); and
* a **code-epoch token** derived from the golden-fixture hash
  (``tests/golden/golden_runs.json``): any kernel change that alters
  simulation outputs regenerates the goldens, which rolls the epoch and
  cleanly invalidates every cached run.

Canonical serialization is deterministic and order-independent: nested
dataclasses serialize field-by-field with class identity, enums by value,
and the final JSON is dumped with sorted keys and exact ``repr`` float
round-tripping — two equal tasks always produce byte-identical canonical
JSON, regardless of how they were constructed.

Strategies must be *registered* (exact class match) to be fingerprintable
— an unregistered strategy class raises :class:`FingerprintUnavailable`
and the cache **bypasses** that task rather than risk serving a wrong
result for an unknown behavior.  The built-in Table III strategies are
registered here; custom strategies opt in via
:func:`register_strategy_fingerprint`.
"""

import hashlib
import json
import math
import os
import pickle
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Type

from repro.core.strategies import (
    AttackStrategy,
    ContextAwareStrategy,
    NoAttackStrategy,
    RandomDurationStrategy,
    RandomStartDurationStrategy,
    RandomStartStrategy,
    ScheduledAttackStrategy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.injection.engine import SimulationConfig

#: Task-fingerprint format version — part of every digest, bumped on
#: incompatible changes to the canonical serialization itself.
TASK_FINGERPRINT_VERSION = 1

#: Environment variable overriding the computed code epoch (useful for
#: pinning a cache namespace across checkouts, or in tests).
CODE_EPOCH_ENV = "REPRO_CODE_EPOCH"


class FingerprintUnavailable(ValueError):
    """The task cannot be canonically fingerprinted (cache must bypass)."""


# -- strategy identity --------------------------------------------------------

#: Exact strategy class -> constructor-equivalent attribute names.  Exact
#: (not MRO-based) lookup on purpose: a subclass can change behavior
#: without adding fields, so it must register its own identity.
_STRATEGY_FIELDS: Dict[Type[AttackStrategy], Tuple[str, ...]] = {}


def register_strategy_fingerprint(cls: Type[AttackStrategy], field_names: Tuple[str, ...]) -> None:
    """Declare a strategy class fingerprintable via the named attributes.

    The attributes must fully determine the strategy's behavior given the
    run seed (i.e. everything its constructor configures).  The class
    identity (module + qualname + ``name`` + corruption mode) is always
    part of the token, so two registered classes never collide even with
    identical field values.
    """
    _STRATEGY_FIELDS[cls] = tuple(field_names)


register_strategy_fingerprint(NoAttackStrategy, ())
register_strategy_fingerprint(RandomStartDurationStrategy, ("start_range", "duration_range"))
register_strategy_fingerprint(RandomStartStrategy, ("start_range", "duration_range"))
register_strategy_fingerprint(ScheduledAttackStrategy, ("start_range", "duration_range"))
register_strategy_fingerprint(RandomDurationStrategy, ("duration_range",))
register_strategy_fingerprint(ContextAwareStrategy, ("max_duration", "stop_on_hazard"))


def _strategy_token(config: "SimulationConfig", strategy: Optional[AttackStrategy]) -> dict:
    """The canonical identity of the strategy *as the simulation sees it*.

    When no attack engine is built (``attack_type`` is ``None``, or the
    strategy is absent / the no-attack baseline), only the strategy name
    reaches the result record, so only the name enters the token — an
    attack-free run hashes the same under any inert strategy object with
    the same name.
    """
    engine_active = (
        config.attack_type is not None
        and strategy is not None
        and not isinstance(strategy, NoAttackStrategy)
    )
    if not engine_active:
        name = strategy.name if strategy is not None else NoAttackStrategy.name
        return {"inert": True, "name": name}
    assert strategy is not None
    cls = type(strategy)
    try:
        field_names = _STRATEGY_FIELDS[cls]
    except KeyError:
        raise FingerprintUnavailable(
            f"strategy class {cls.__module__}.{cls.__qualname__} is not registered "
            "for fingerprinting (register_strategy_fingerprint opts it in)"
        ) from None
    token: Dict[str, Any] = {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "name": strategy.name,
        "corruption_mode": strategy.corruption_mode.value,
        "context_triggered": strategy.context_triggered,
    }
    for field_name in field_names:
        token[f"param.{field_name}"] = _canonical(getattr(strategy, field_name))
    return token


# -- canonical value encoding -------------------------------------------------


def _canonical(value: Any) -> Any:
    """Encode a config value into a deterministic JSON-safe structure."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # json.dumps serializes doubles at repr precision, which
        # round-trips exactly — equal floats, equal bytes.
        return value
    if isinstance(value, Enum):
        cls = type(value)
        return {"__enum__": f"{cls.__module__}.{cls.__qualname__}", "value": value.value}
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        payload: Dict[str, Any] = {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}"
        }
        for field in fields(value):
            payload[field.name] = _canonical(getattr(value, field.name))
        return payload
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise FingerprintUnavailable(
                    f"cannot canonicalize dict key {key!r} (only string keys)"
                )
            encoded[key] = _canonical(item)
        return encoded
    raise FingerprintUnavailable(
        f"cannot canonicalize {type(value).__module__}.{type(value).__qualname__} "
        "for fingerprinting"
    )


def _task_fields(
    config: "SimulationConfig", strategy: Optional[AttackStrategy]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """A task's top-level fields, split as ``(shared, scalars)``.

    ``shared`` holds the structured parts a campaign's cells share — the
    resolved scenario, noise, hazard params, attack tuning and strategy
    token — still raw; ``scalars`` holds the per-cell JSON scalars.
    """
    shared = {
        "scenario": config.build_scenario(),
        "noise": config.noise,
        "hazard_params": config.hazard_params,
        "attack_tuning": config.attack_tuning,
        "strategy": _strategy_token(config, strategy),
    }
    scalars = {
        "version": TASK_FINGERPRINT_VERSION,
        "seed": config.seed,
        "attack_type": None if config.attack_type is None else config.attack_type.value,
        "driver_enabled": config.driver_enabled,
        "max_steps": config.max_steps,
        "stop_after_collision": config.stop_after_collision,
        "record_trajectory": config.record_trajectory,
        "driver_reaction_time": config.driver_reaction_time,
        "track_safety_margin": config.track_safety_margin,
    }
    return shared, scalars


def canonical_task(
    config: "SimulationConfig", strategy: Optional[AttackStrategy] = None
) -> dict:
    """The canonical JSON-safe description of one simulation task.

    This is the reference definition of the fingerprint's content:
    :func:`fingerprint_task` hashes exactly
    ``canonical_json(canonical_task(config, strategy))``.

    The scenario is *resolved* first (names looked up, initial-distance
    override applied), so a task given as ``scenario="S1"`` and the same
    task given the S1 spec object canonicalize identically.

    Raises :class:`FingerprintUnavailable` for tasks the canonical model
    cannot describe (unregistered strategy classes, non-JSON-safe config
    values) — callers treat those as cache bypasses.
    """
    shared, scalars = _task_fields(config, strategy)
    payload = {key: _canonical(value) for key, value in shared.items()}
    payload.update(scalars)
    return payload


def canonical_json(payload: dict) -> str:
    """Dump a canonical payload as byte-deterministic JSON."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- shared-part splicing -----------------------------------------------------

#: Canonical JSON of recently seen shared parts, keyed by each part's
#: pickle.  The key is type-exact where value equality is not: ``70``
#: and ``70.0``, ``0.0`` and ``-0.0``, ``True`` and ``1`` compare equal
#: but serialise differently, so an equality key would make a digest
#: depend on what the process fingerprinted before.
_part_memo: Dict[bytes, str] = {}

#: Entries kept before the memo starts over.  A campaign grid shares a
#: handful of parts; search tasks bring a fresh tuning per point and
#: must not grow the memo.
_PART_MEMO_CAP = 64


def _part_json(value: Any) -> str:
    """``canonical_json(_canonical(value))``, memoised type-exactly."""
    try:
        key = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    except Exception:
        return canonical_json(_canonical(value))  # no key: render unmemoised
    text = _part_memo.get(key)
    if text is None:
        text = canonical_json(_canonical(value))
        if len(_part_memo) >= _PART_MEMO_CAP:
            _part_memo.clear()
        _part_memo[key] = text
    return text


def _scalar_json(value: Any) -> str:
    """``json.dumps(value)`` as the canonical dump renders a top-level scalar.

    The common exact types skip the encoder's set-up; everything else
    (strings, non-finite floats, subclasses) goes through it.
    """
    kind = type(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return canonical_json(value)


def _task_json(config: "SimulationConfig", strategy: Optional[AttackStrategy]) -> str:
    """``canonical_json(canonical_task(config, strategy))``, spliced.

    The shared parts come from :func:`_part_json`; the per-cell scalars
    are rendered in place.  Top-level keys are fixed identifiers, so
    sorting them and quoting them by hand matches the sorted dump.
    """
    shared, scalars = _task_fields(config, strategy)
    rendered = {key: _part_json(value) for key, value in shared.items()}
    for key, value in scalars.items():
        rendered[key] = _scalar_json(value)
    return "{" + ",".join(f'"{key}":{rendered[key]}' for key in sorted(rendered)) + "}"


# -- the code epoch -----------------------------------------------------------

_default_epoch: Optional[str] = None


def _golden_fixture_path() -> Optional[str]:
    """Locate ``tests/golden/golden_runs.json`` relative to the checkout."""
    base = os.path.dirname(os.path.abspath(__file__))
    for _ in range(6):
        candidate = os.path.join(base, "tests", "golden", "golden_runs.json")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(base)
        if parent == base:
            break
        base = parent
    return None


def compute_code_epoch() -> str:
    """Derive the code-epoch token for this checkout.

    Preference order: the :data:`CODE_EPOCH_ENV` environment variable
    (explicit namespace pinning), the SHA-256 of the golden fixture
    (rolls exactly when simulation outputs change), then the package
    version (installed deployments without the test tree — coarser, but
    still monotone across releases).
    """
    env = os.environ.get(CODE_EPOCH_ENV, "")
    if env:
        return f"env:{env}"
    path = _golden_fixture_path()
    if path is not None:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        return f"golden:{digest.hexdigest()}"
    from repro.version import __version__

    return f"version:{__version__}"


def default_code_epoch() -> str:
    """The process-wide cached code epoch (computed once, lazily)."""
    global _default_epoch
    if _default_epoch is None:
        _default_epoch = compute_code_epoch()
    return _default_epoch


# -- the fingerprint ----------------------------------------------------------


def fingerprint_task(
    config: "SimulationConfig",
    strategy: Optional[AttackStrategy] = None,
    code_epoch: Optional[str] = None,
) -> str:
    """The 64-hex-char content address of one simulation task.

    Equal tasks (same resolved scenario, config, strategy identity, seed)
    under the same code epoch always produce the same digest; any
    difference in any of those produces a different one.

    Raises :class:`FingerprintUnavailable` when the task cannot be
    canonically described (see :func:`canonical_task`).
    """
    epoch = code_epoch if code_epoch is not None else default_code_epoch()
    digest = hashlib.sha256()
    digest.update(epoch.encode())
    digest.update(b"\x00")
    digest.update(_task_json(config, strategy).encode())
    return digest.hexdigest()
