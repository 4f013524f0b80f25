"""Property-based tests for the dense batch path's divergence mask.

The SoA fast path in :mod:`repro.kernel.batch` is only sound because
any row can leave it at any cycle boundary (alert raised, driver
intervention, CAN transformer) and finish on the scalar stages.  These
tests pin that contract from the outside: for *arbitrary* mixes of
rows that stay dense and rows that demote mid-run, the batched results
must be bit-identical to running every task through the sequential
engine — no tolerance, ``RunResult.__eq__`` compares every field.

These batches (2–8 rows) sit below the production tier threshold, so
each test also runs with ``DENSE_MIN_ACTIVE`` forced to 1: the CAN
codec and the dense SoA columns then run at every width.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attack_types import AttackType
from repro.core.strategies import strategy_by_name
from repro.injection.engine import SimulationConfig, run_simulation
from repro.kernel import BatchRunner, run_batched

_MAX_STEPS = 350

#: Attack rows demote mid-run (alerts and driver intervention); ``None``
#: rows ride the dense path end to end.  Mixing them in one batch is the
#: point of the property.
_ATTACK_POOL = (
    None,
    AttackType.DECELERATION,
    AttackType.ACCELERATION,
    AttackType.STEERING_LEFT,
    AttackType.ACCELERATION_STEERING,
)

_task_spec = st.tuples(
    st.sampled_from(_ATTACK_POOL),
    st.integers(min_value=0, max_value=7),   # seed
    st.sampled_from((50.0, 70.0)),           # initial distance
)


def _build_tasks(specs):
    tasks = []
    for attack, seed, distance in specs:
        config = SimulationConfig(
            scenario="S1",
            initial_distance=distance,
            seed=seed,
            attack_type=attack,
            max_steps=_MAX_STEPS,
        )
        strategy = strategy_by_name("Random-ST+DUR") if attack else None
        tasks.append((config, strategy))
    return tasks


class TestDivergenceMaskProperty:
    # ``kernel_tiers`` patches module constants that are the same for
    # every example, so one patch per test serves them all.
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        specs=st.lists(_task_spec, min_size=2, max_size=6),
        batch_size=st.integers(min_value=2, max_value=8),
    )
    def test_any_dense_demoted_mix_is_bit_identical_to_scalar(
        self, kernel_tiers, specs, batch_size
    ):
        batched = run_batched(_build_tasks(specs), batch_size=batch_size)
        sequential = [
            run_simulation(config, strategy)
            for config, strategy in _build_tasks(specs)
        ]
        assert batched == sequential


class TestMidRunDemotionRegression:
    def test_alert_at_step_k_demotes_row_and_stays_identical(self, kernel_tiers):
        # A scheduled steering attack saturates the lateral controller
        # mid-run: the steerSaturated alert raises at some step k > 0,
        # and the row must leave the dense region at the next cycle top
        # while the rest of the batch stays dense — with results still
        # bit-identical to the sequential engine.
        attack_config = SimulationConfig(
            scenario="S1",
            initial_distance=70.0,
            seed=2022,
            attack_type=AttackType.STEERING_LEFT,
            max_steps=2000,
            # No driver takeover: the steering saturation persists until
            # the steerSaturated alert itself is what demotes the row.
            driver_enabled=False,
        )
        dense_configs = [
            SimulationConfig(
                scenario="S1", initial_distance=70.0, seed=seed, max_steps=2000
            )
            for seed in (0, 1, 2)
        ]

        def tasks():
            return [(attack_config, strategy_by_name("Context-Aware"))] + [
                (config, None) for config in dense_configs
            ]

        expected = [run_simulation(config, strategy) for config, strategy in tasks()]
        assert expected[0].alerts, "the attacked reference run must raise an alert"

        runner = BatchRunner(batch_size=4)
        demotions = []
        cycles = [0]
        original_cycle = runner._cycle
        original_demote = runner._demote

        def counting_cycle(active, stage_hists=None):
            cycles[0] += 1
            original_cycle(active, stage_hists)

        def recording_demote(active, position):
            demotions.append((cycles[0], active[position].index))
            original_demote(active, position)

        runner._cycle = counting_cycle
        runner._demote = recording_demote
        results = runner.run_tasks(tasks())

        assert results == expected
        attacked = [(cycle, idx) for cycle, idx in demotions if idx == 0]
        assert attacked, "the attacked row never left the dense path"
        cycle_of_demotion = attacked[0][0]
        assert 1 < cycle_of_demotion < cycles[0], (
            "demotion must happen mid-run, not at admission or retirement"
        )
        # The attack-free rows must have stayed dense to the end.
        assert all(idx == 0 for _, idx in demotions)
