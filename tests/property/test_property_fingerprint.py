"""Property tests: the spliced task fingerprint equals the reference digest.

``fingerprint_task`` splices memoised canonical JSON of the parts a
campaign's cells share into the top-level object.  The reference is the
plain path, ``sha256(epoch + "\\0" + canonical_json(canonical_task(...)))``.
The strategies draw values that compare equal but serialise differently
— ``70`` and ``70.0``, ``0.0`` and ``-0.0``, ``True`` and ``1`` — in the
scalars and inside every shared part, and fingerprint them in random
order from a cleared, a warm and a full memo.  A memo keyed on value
equality would hand one of each pair the other's JSON, so it fails here.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hazards import HazardParams
from repro.core.attack_engine import AttackTuning
from repro.core.attack_types import AttackType
from repro.core.strategies import (
    ContextAwareStrategy,
    NoAttackStrategy,
    RandomDurationStrategy,
    RandomStartDurationStrategy,
    RandomStartStrategy,
    ScheduledAttackStrategy,
)
from repro.injection.engine import SimulationConfig
from repro.service import fingerprint
from repro.service.fingerprint import canonical_json, canonical_task, fingerprint_task
from repro.sim.scenarios import build_scenario
from repro.sim.sensors import SensorNoise

EPOCH = "property-epoch"


def reference(config, strategy):
    payload = canonical_json(canonical_task(config, strategy)).encode()
    return hashlib.sha256(EPOCH.encode() + b"\0" + payload).hexdigest()


#: Equal-valued pools whose members serialise differently.
zeros = st.sampled_from([0.0, -0.0, 0])
flags = st.sampled_from([True, False, 1, 0])
distances = st.sampled_from([None, 70.0, 70, 55.0, 50.0, 90, 100.0])


@st.composite
def scenarios(draw):
    """A scenario name, or a resolved spec given as the object itself."""
    name = draw(st.sampled_from(["S1", "S2", "S3", "S4", "stop-and-go", "cut-in-short-gap"]))
    if draw(st.booleans()):
        return name
    return build_scenario(name).variant(
        ego_initial_lane_offset=draw(st.sampled_from([-0.3, 0.0, -0.0, 0])),
        follower_gap=draw(st.sampled_from([45.0, 45])),
        with_follower=draw(flags),
    )


@st.composite
def attack_strategies(draw):
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return None
    if kind == 1:
        return NoAttackStrategy()
    if kind == 2:
        return RandomStartDurationStrategy(
            start_range=draw(st.sampled_from([(5.0, 40.0), (5, 40), (5.0, 40)])),
            duration_range=draw(st.sampled_from([(0.5, 2.5), (0.5, 2)])),
        )
    if kind == 3:
        return RandomStartStrategy(duration=draw(st.sampled_from([2.5, 2, 2.0])))
    if kind == 4:
        return RandomDurationStrategy()
    if kind == 5:
        return ScheduledAttackStrategy(draw(st.sampled_from([12.0, 12, 0.0, -0.0])), 2.0)
    return ContextAwareStrategy(
        max_duration=draw(st.sampled_from([12.0, 12])), stop_on_hazard=draw(flags)
    )


@st.composite
def tasks(draw):
    config = SimulationConfig(
        scenario=draw(scenarios()),
        initial_distance=draw(distances),
        seed=draw(st.integers(0, 2**32 - 1)),
        attack_type=draw(st.sampled_from([None, *AttackType])),
        driver_enabled=draw(flags),
        max_steps=draw(st.sampled_from([5000, 150, 150.0])),
        stop_after_collision=draw(st.sampled_from([0.5, 1, 0.0, -0.0])),
        noise=SensorNoise(gps_speed_std=draw(st.sampled_from([0.05, 0.0, -0.0, 0]))),
        record_trajectory=draw(flags),
        driver_reaction_time=draw(st.sampled_from([2.5, 2, 2.0])),
        hazard_params=HazardParams(
            h1_min_gap=draw(st.sampled_from([5.0, 5])), h2_speed_fraction=draw(zeros)
        ),
        attack_tuning=draw(
            st.one_of(
                st.none(),
                st.builds(AttackTuning, t_safe=st.sampled_from([None, 2.0, 2, -0.0])),
            )
        ),
        track_safety_margin=draw(flags),
    )
    return config, draw(attack_strategies())


def _fill_memo_to_cap() -> None:
    memo = fingerprint._part_memo
    filler = 0
    while len(memo) < fingerprint._PART_MEMO_CAP:
        memo[b"filler-%d" % filler] = "null"
        filler += 1


@settings(max_examples=200, deadline=None)
@given(
    checked=st.lists(tasks(), min_size=1, max_size=8),
    warm=st.lists(tasks(), max_size=8),
    memo_state=st.sampled_from(["cleared", "warm", "at-cap"]),
    order=st.randoms(use_true_random=False),
)
def test_spliced_digest_equals_the_reference(checked, warm, memo_state, order):
    if memo_state == "cleared":
        fingerprint._part_memo.clear()
    elif memo_state == "warm":
        for config, strategy in warm:
            fingerprint_task(config, strategy, code_epoch=EPOCH)
    else:
        _fill_memo_to_cap()
    order.shuffle(checked)
    for config, strategy in checked:
        assert fingerprint_task(config, strategy, code_epoch=EPOCH) == reference(config, strategy)
    assert len(fingerprint._part_memo) <= fingerprint._PART_MEMO_CAP


def test_rebinding_a_catalog_name_changes_its_digest(monkeypatch):
    from repro.scenarios.catalog import CATALOG

    monkeypatch.setattr(CATALOG, "_specs", dict(CATALOG._specs))
    base = build_scenario("S1")
    CATALOG.register(base.variant(name="fingerprint-rebound"))
    config = SimulationConfig(
        scenario="fingerprint-rebound", seed=3, attack_type=AttackType.DECELERATION
    )
    strategy = ContextAwareStrategy()
    before = fingerprint_task(config, strategy, code_epoch=EPOCH)
    CATALOG.register(
        base.variant(name="fingerprint-rebound", lead_initial_speed=base.lead_initial_speed + 1.0),
        replace_existing=True,
    )
    after = fingerprint_task(config, strategy, code_epoch=EPOCH)
    assert after != before
    assert after == reference(config, strategy)
