"""Tests for the safety context table, state inference and matcher."""

import pytest

from repro.core.attack_types import ControlAction
from repro.core.context_matcher import ContextMatcher
from repro.core.context_table import ContextTable, default_context_table
from repro.core.eavesdropper import EavesdroppedData
from repro.core.state_inference import InferredContext, StateInference
from repro.sim.units import mph_to_ms


def context(**kwargs):
    defaults = dict(
        time=1.0, valid=True, v_ego=20.0, has_lead=True, lead_distance=60.0,
        lead_speed=15.0, relative_speed=5.0, headway_time=3.0,
        d_left=1.0, d_right=1.0, lateral_offset=0.0,
    )
    defaults.update(kwargs)
    return InferredContext(**defaults)


class TestContextTable:
    def test_has_four_rules_like_table1(self):
        assert len(default_context_table()) == 4

    def test_rule1_acceleration_when_close_and_closing(self):
        table = default_context_table(t_safe=2.0)
        rule1 = table.rules_for_action(ControlAction.ACCELERATION)[0]
        assert rule1.condition(context(headway_time=1.5, relative_speed=3.0))
        assert not rule1.condition(context(headway_time=2.5, relative_speed=3.0))
        assert not rule1.condition(context(headway_time=1.5, relative_speed=-1.0))
        assert rule1.hazard == "H1"

    def test_rule2_deceleration_when_no_closing_lead_and_fast(self):
        table = default_context_table(t_safe=2.0, beta1=mph_to_ms(25.0))
        rule2 = table.rules_for_action(ControlAction.DECELERATION)[0]
        assert rule2.condition(context(headway_time=3.0, relative_speed=-0.5))
        assert rule2.condition(context(has_lead=False, headway_time=float("inf")))
        assert not rule2.condition(context(headway_time=1.5, relative_speed=-0.5))
        assert not rule2.condition(context(headway_time=3.0, relative_speed=-0.5, v_ego=5.0))
        assert rule2.hazard == "H2"

    def test_rule3_rule4_steering_near_lane_edges(self):
        table = default_context_table(beta2=mph_to_ms(25.0), edge_threshold=0.1)
        rule3 = table.rules_for_action(ControlAction.STEER_LEFT)[0]
        rule4 = table.rules_for_action(ControlAction.STEER_RIGHT)[0]
        assert rule3.condition(context(d_left=0.05))
        assert not rule3.condition(context(d_left=0.5))
        assert rule4.condition(context(d_right=0.05))
        assert not rule4.condition(context(d_right=0.05, v_ego=5.0))
        assert rule3.hazard == rule4.hazard == "H3"

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            ContextTable([])

    def test_format_renders_all_rows(self):
        text = default_context_table().format()
        assert "ACCELERATION" in text and "STEER_RIGHT" in text
        assert text.count("\n") >= 5


class TestStateInference:
    def test_incomplete_data_yields_invalid_context(self):
        inference = StateInference()
        ctx = inference.infer(EavesdroppedData(time=1.0))
        assert not ctx.valid

    def test_headway_and_relative_speed(self):
        inference = StateInference()
        data = EavesdroppedData(
            time=1.0, v_ego=20.0, lateral_offset=0.0, left_line_offset=1.8,
            right_line_offset=-1.8, lane_width=3.6, has_lead=True,
            lead_distance=40.0, lead_relative_speed=-5.0,
        )
        ctx = inference.infer(data)
        assert ctx.valid
        assert ctx.headway_time == pytest.approx(2.0)
        # radar v_rel = lead - ego = -5 -> paper's RS = ego - lead = +5
        assert ctx.relative_speed == pytest.approx(5.0)
        assert ctx.lead_speed == pytest.approx(15.0)

    def test_lane_edge_distances_subtract_vehicle_width(self):
        inference = StateInference(vehicle_width=1.8)
        data = EavesdroppedData(
            time=1.0, v_ego=20.0, lateral_offset=-0.5, left_line_offset=2.3,
            right_line_offset=-1.3, lane_width=3.6,
        )
        ctx = inference.infer(data)
        assert ctx.d_left == pytest.approx(2.3 - 0.9)
        assert ctx.d_right == pytest.approx(1.3 - 0.9)

    def test_no_lead_gives_infinite_headway(self):
        inference = StateInference()
        data = EavesdroppedData(
            time=1.0, v_ego=20.0, lateral_offset=0.0, left_line_offset=1.8,
            right_line_offset=-1.8, has_lead=False,
        )
        ctx = inference.infer(data)
        assert ctx.headway_time == float("inf")
        assert not ctx.has_lead

    def test_standstill_headway_infinite(self):
        inference = StateInference()
        data = EavesdroppedData(
            time=1.0, v_ego=0.0, lateral_offset=0.0, left_line_offset=1.8,
            right_line_offset=-1.8, has_lead=True, lead_distance=10.0,
            lead_relative_speed=0.0,
        )
        assert inference.infer(data).headway_time == float("inf")


class TestContextMatcher:
    def test_matches_applicable_rules(self):
        matcher = ContextMatcher(default_context_table(t_safe=2.0))
        matches = matcher.match(context(headway_time=1.5, relative_speed=3.0, d_right=0.05))
        actions = {match.action for match in matches}
        assert ControlAction.ACCELERATION in actions
        assert ControlAction.STEER_RIGHT in actions

    def test_no_match_for_benign_context(self):
        matcher = ContextMatcher(default_context_table(t_safe=2.0))
        assert matcher.match(context(headway_time=2.2, relative_speed=3.0)) == []

    def test_invalid_context_never_matches(self):
        matcher = ContextMatcher(default_context_table())
        assert matcher.match(InferredContext(time=0.0, valid=False)) == []

    def test_low_speed_never_matches(self):
        matcher = ContextMatcher(default_context_table(), min_speed=1.0)
        assert matcher.match(context(v_ego=0.5, headway_time=0.5, relative_speed=5.0)) == []

    def test_match_for_actions_filters(self):
        matcher = ContextMatcher(default_context_table(t_safe=2.0))
        ctx = context(headway_time=1.5, relative_speed=3.0)
        match = matcher.match_for_actions(ctx, [ControlAction.ACCELERATION])
        assert match is not None and match.action is ControlAction.ACCELERATION
        assert matcher.match_for_actions(ctx, [ControlAction.STEER_LEFT]) is None
