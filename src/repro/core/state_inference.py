"""Safety context inference (Section III-C, step 2).

Converts the eavesdropped raw state into the human-interpretable state
variables used by the safety context table:

* **HWT** — headway time = relative distance / current speed,
* **RS** — relative speed = current speed − lead speed (positive when the
  ego vehicle is closing on the lead),
* **d_left / d_right** — distance from the vehicle's sides to the left and
  right edges of the current lane.
"""

from dataclasses import dataclass

from repro.core.eavesdropper import EavesdroppedData


@dataclass(slots=True)
class InferredContext:
    """The attacker's inferred safety-relevant state.

    Same contract as :class:`~repro.core.eavesdropper.EavesdroppedData`:
    consume a context when it is handed over, never retain or mutate
    it.  The attack engine re-infers only when the eavesdropper delivered
    a fresh snapshot and otherwise refreshes ``time`` of the previous
    context in place, so every poll sees exactly what :meth:`infer`
    would return for it.
    """

    time: float
    valid: bool                      # False until all needed messages have arrived
    v_ego: float = 0.0               # m/s
    has_lead: bool = False
    lead_distance: float = float("inf")
    lead_speed: float = 0.0
    relative_speed: float = 0.0      # v_ego - v_lead (RS in the paper)
    headway_time: float = float("inf")
    d_left: float = float("inf")     # m from vehicle's left side to the left lane line
    d_right: float = float("inf")    # m from vehicle's right side to the right lane line
    lateral_offset: float = 0.0      # m from lane centre, + left


class StateInference:
    """Derives :class:`InferredContext` from :class:`EavesdroppedData`."""

    def __init__(self, vehicle_width: float = 1.8, min_speed_for_headway: float = 0.5):
        """Args:
            vehicle_width: The attacker's estimate of the vehicle width
                (publicly available for the supported car models).
            min_speed_for_headway: Below this speed the headway time is
                reported as infinite (stationary vehicles are handled by
                the relative-speed term instead).
        """
        self.vehicle_width = vehicle_width
        self.min_speed_for_headway = min_speed_for_headway

    def infer(self, data: EavesdroppedData) -> InferredContext:
        """Infer the safety context from the eavesdropped snapshot."""
        if not data.complete:
            return InferredContext(time=data.time, valid=False)

        v_ego = max(0.0, data.v_ego)

        has_lead = data.has_lead and data.lead_distance is not None
        lead_distance = float("inf")
        lead_speed = 0.0
        relative_speed = 0.0
        headway_time = float("inf")
        if has_lead:
            lead_distance = max(0.0, data.lead_distance)
            # radarState reports v_rel = v_lead - v_ego; the paper's RS is
            # v_ego - v_lead.
            relative_speed = -(data.lead_relative_speed or 0.0)
            lead_speed = max(0.0, v_ego - relative_speed)
            if v_ego > self.min_speed_for_headway:
                headway_time = lead_distance / v_ego

        d_left = float("inf")
        d_right = float("inf")
        if data.left_line_offset is not None:
            d_left = data.left_line_offset - self.vehicle_width / 2.0
        if data.right_line_offset is not None:
            d_right = -data.right_line_offset - self.vehicle_width / 2.0

        return InferredContext(
            time=data.time,
            valid=True,
            v_ego=v_ego,
            has_lead=has_lead,
            lead_distance=lead_distance,
            lead_speed=lead_speed,
            relative_speed=relative_speed,
            headway_time=headway_time,
            d_left=d_left,
            d_right=d_right,
            lateral_offset=data.lateral_offset or 0.0,
        )
