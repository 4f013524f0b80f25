"""Unit tests for the canonical task fingerprint (repro.service.fingerprint).

The fingerprint is the run cache's key contract: equal tasks must hash
identically however they were constructed (scenario name vs resolved
spec, repeated strategy instances), every behavior-relevant field must
change the hash, and anything the canonical model cannot describe must
refuse loudly (→ cache bypass) instead of colliding silently.
"""

import pytest

from repro.core.attack_types import AttackType
from repro.core.strategies import (
    ContextAwareStrategy,
    NoAttackStrategy,
    RandomDurationStrategy,
    RandomStartDurationStrategy,
    RandomStartStrategy,
)
from repro.injection.engine import SimulationConfig
from repro.service.fingerprint import (
    FingerprintUnavailable,
    canonical_json,
    canonical_task,
    compute_code_epoch,
    fingerprint_task,
    register_strategy_fingerprint,
)

EPOCH = "test-epoch"


def _config(**overrides) -> SimulationConfig:
    values = dict(
        scenario="S1",
        initial_distance=70.0,
        seed=42,
        attack_type=AttackType.DECELERATION,
    )
    values.update(overrides)
    return SimulationConfig(**values)


class TestStability:
    def test_equal_tasks_hash_identically(self):
        a = fingerprint_task(_config(), RandomStartDurationStrategy(), code_epoch=EPOCH)
        b = fingerprint_task(_config(), RandomStartDurationStrategy(), code_epoch=EPOCH)
        assert a == b

    def test_scenario_name_and_resolved_spec_hash_identically(self):
        by_name = _config()
        by_spec = _config(scenario=by_name.build_scenario())
        strategy = ContextAwareStrategy()
        assert fingerprint_task(by_name, strategy, code_epoch=EPOCH) == fingerprint_task(
            by_spec, strategy, code_epoch=EPOCH
        )

    def test_canonical_json_round_trip_is_byte_stable(self):
        import json

        payload = canonical_task(_config(), ContextAwareStrategy())
        dumped = canonical_json(payload)
        assert canonical_json(json.loads(dumped)) == dumped

    def test_canonical_json_is_key_order_independent(self):
        payload = canonical_task(_config(), ContextAwareStrategy())
        reversed_payload = dict(reversed(list(payload.items())))
        assert canonical_json(reversed_payload) == canonical_json(payload)


class TestInvalidation:
    def test_seed_changes_the_fingerprint(self):
        s = ContextAwareStrategy()
        assert fingerprint_task(_config(seed=1), s, code_epoch=EPOCH) != fingerprint_task(
            _config(seed=2), s, code_epoch=EPOCH
        )

    def test_every_grid_dimension_changes_the_fingerprint(self):
        s = ContextAwareStrategy()
        base = fingerprint_task(_config(), s, code_epoch=EPOCH)
        for overrides in (
            {"scenario": "S2"},
            {"initial_distance": 50.0},
            {"attack_type": AttackType.ACCELERATION},
            {"driver_enabled": False},
            {"max_steps": 100},
            {"track_safety_margin": True},
        ):
            assert fingerprint_task(_config(**overrides), s, code_epoch=EPOCH) != base

    def test_strategy_class_and_parameters_change_the_fingerprint(self):
        base = fingerprint_task(_config(), RandomStartDurationStrategy(), code_epoch=EPOCH)
        other_class = fingerprint_task(_config(), RandomDurationStrategy(), code_epoch=EPOCH)
        other_params = fingerprint_task(
            _config(),
            RandomStartDurationStrategy(start_range=(1.0, 2.0)),
            code_epoch=EPOCH,
        )
        assert other_class != base
        assert other_params != base

    def test_code_epoch_invalidates(self):
        s = ContextAwareStrategy()
        assert fingerprint_task(_config(), s, code_epoch="a") != fingerprint_task(
            _config(), s, code_epoch="b"
        )

    def test_env_var_overrides_the_computed_epoch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_EPOCH", "pinned")
        assert compute_code_epoch() == "env:pinned"

    def test_default_epoch_derives_from_the_golden_fixture(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_EPOCH", raising=False)
        assert compute_code_epoch().startswith("golden:")


class TestInertStrategies:
    def test_attack_free_run_hashes_by_strategy_name_only(self):
        config = _config(attack_type=None)
        token_none = canonical_task(config, None)["strategy"]
        token_noattack = canonical_task(config, NoAttackStrategy())["strategy"]
        assert token_none == token_noattack == {"inert": True, "name": NoAttackStrategy.name}

    def test_inert_strategies_with_different_names_differ(self):
        config = _config(attack_type=None)
        a = fingerprint_task(config, NoAttackStrategy(), code_epoch=EPOCH)
        b = fingerprint_task(config, None, code_epoch=EPOCH)
        c = fingerprint_task(config, ContextAwareStrategy(), code_epoch=EPOCH)
        assert a == b        # same name reaches the result either way
        assert c != a        # the result records a different strategy name


class TestRefusal:
    def test_unregistered_strategy_class_is_refused(self):
        class Custom(RandomStartStrategy):
            pass

        with pytest.raises(FingerprintUnavailable):
            fingerprint_task(_config(), Custom(), code_epoch=EPOCH)

    def test_registration_opts_a_custom_strategy_in(self):
        class Registered(RandomStartStrategy):
            pass

        register_strategy_fingerprint(Registered, ("start_range", "duration_range"))
        fp = fingerprint_task(_config(), Registered(), code_epoch=EPOCH)
        parent = fingerprint_task(_config(), RandomStartStrategy(), code_epoch=EPOCH)
        assert fp != parent  # class identity is always part of the token

    def test_table5_fixed_value_strategy_is_registered(self):
        from repro.experiments.table5 import ContextAwareFixedValueStrategy

        fixed = fingerprint_task(
            _config(), ContextAwareFixedValueStrategy(), code_epoch=EPOCH
        )
        strategic = fingerprint_task(_config(), ContextAwareStrategy(), code_epoch=EPOCH)
        assert fixed != strategic


# -- the pinned format ---------------------------------------------------------

#: The epoch every pinned digest is taken under.
PINNED_EPOCH = "pinned-epoch"


def _pinned_tasks():
    """One task per registered strategy class, plus the special shapes."""
    from repro.core.attack_engine import AttackTuning
    from repro.core.strategies import ScheduledAttackStrategy
    from repro.experiments.table5 import ContextAwareFixedValueStrategy
    from repro.sim.scenarios import build_scenario

    return {
        "no-attack-strategy": (
            _config(attack_type=AttackType.ACCELERATION, seed=7),
            NoAttackStrategy(),
        ),
        "random-st+dur": (_config(seed=1), RandomStartDurationStrategy()),
        "random-st": (
            _config(
                scenario="S2",
                initial_distance=50.0,
                attack_type=AttackType.ACCELERATION,
                seed=2,
            ),
            RandomStartStrategy(),
        ),
        "random-dur": (
            _config(
                scenario="S3",
                initial_distance=100.0,
                attack_type=AttackType.STEERING_LEFT,
                seed=3,
            ),
            RandomDurationStrategy(),
        ),
        "scheduled": (
            _config(scenario="S4", attack_type=AttackType.STEERING_RIGHT, seed=4),
            ScheduledAttackStrategy(12.5, 2.0),
        ),
        "context-aware": (
            _config(
                initial_distance=100.0,
                attack_type=AttackType.DECELERATION_STEERING,
                seed=5,
            ),
            ContextAwareStrategy(),
        ),
        "context-aware-fixed-value": (
            _config(attack_type=AttackType.ACCELERATION_STEERING, seed=6),
            ContextAwareFixedValueStrategy(),
        ),
        "inert": (_config(attack_type=None, seed=8), None),
        "scenario-object": (
            _config(scenario=build_scenario("S3"), initial_distance=50.0, seed=9),
            ContextAwareStrategy(),
        ),
        "attack-tuning": (
            _config(
                attack_tuning=AttackTuning(t_safe=1.5, beta1=0.25),
                track_safety_margin=True,
                max_steps=2500,
                seed=10,
            ),
            ContextAwareStrategy(max_duration=6.0),
        ),
    }


#: Computed under :data:`PINNED_EPOCH` by the plain reference path
#: (``sha256(epoch + "\0" + canonical_json(canonical_task(...)))``)
#: before the shared-part fast path existed.  A serialisation change that
#: moves any of them turns every warm cache cold: bump
#: ``TASK_FINGERPRINT_VERSION`` on purpose instead.
PINNED_DIGESTS = {
    "no-attack-strategy": "4a0510714b2025366e616a417d4f590837fdc5cbab2d368cea862e5eddac08c1",
    "random-st+dur": "24514330c26e779ed3152d3ce79ce956e403108f954f1820274ec2b29731c647",
    "random-st": "9530b3ed6246cf73162d3c5a2bb93be04d492ea9e02f3e7255585f7148f4b7a4",
    "random-dur": "b774443f287e1330438043e78dde0f6adfa189585b7bcf6cb5a5380215e7d1c1",
    "scheduled": "57d0d62386b1e3e36a00e2180ff4a5f0fe390bc320f081e9ccfe7c4fedba2874",
    "context-aware": "ff4d5e0d562c350d15f81d8b5add29d3a14065e29a84d07b421844a50352be3f",
    "context-aware-fixed-value": "4dfa1627b221065c5e2592735d77649aaa078234c200999b162ffb3228ca8a0e",
    "inert": "85238545ab1287e48834ba574ebc87e5d895d824bfb84e3a75ead3965a794153",
    "scenario-object": "1eae15a9843f958a238e43441297833b769d1cba7de21e5c997b2729d4da97b2",
    "attack-tuning": "f5f4bb4da8841d1c93cdbd3e397d46be845260661907a04ff7b517b187423f49",
}


class TestPinnedFormat:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_digest_matches_the_pinned_literal(self, name):
        config, strategy = _pinned_tasks()[name]
        assert fingerprint_task(config, strategy, code_epoch=PINNED_EPOCH) == PINNED_DIGESTS[name]

    def test_every_registered_strategy_class_is_pinned(self):
        from repro.service.fingerprint import _STRATEGY_FIELDS

        pinned = {type(strategy) for _, strategy in _pinned_tasks().values()}
        shipped = {cls for cls in _STRATEGY_FIELDS if cls.__module__.startswith("repro.")}
        assert shipped <= pinned
