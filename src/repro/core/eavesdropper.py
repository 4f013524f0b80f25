"""Eavesdropping on the ADAS messaging layer (Section III-C, step 1).

OpenPilot's Cereal messages are unauthenticated and their schema is
public, so any process on the device (or a remote subscriber) can read
them.  The eavesdropper subscribes to the three services the attack needs
— ``gpsLocationExternal`` for the ego speed, ``modelV2`` for the lane line
positions, and ``radarState`` for the lead vehicle's relative distance and
speed — and assembles the latest values into a snapshot.
"""

from dataclasses import dataclass
from typing import Optional

from repro.messaging.bus import MessageBus
from repro.messaging.pubsub import SubMaster

EAVESDROPPED_SERVICES = ("gpsLocationExternal", "modelV2", "radarState")


@dataclass(slots=True)
class EavesdroppedData:
    """The raw state information the attacker has collected so far.

    A snapshot is produced on every attacker control cycle and consumed
    immediately; consumers must not retain or mutate instances.  On
    cycles where no new message arrived the eavesdropper returns the
    previous snapshot with only ``time`` refreshed, so the identity of
    the returned object tells a consumer whether anything changed: the
    attack engine re-runs the state inference only on a new object.
    """

    time: float
    v_ego: Optional[float] = None            # m/s, from GPS
    lateral_offset: Optional[float] = None   # m, from the perception model
    left_line_offset: Optional[float] = None
    right_line_offset: Optional[float] = None
    lane_width: Optional[float] = None
    has_lead: bool = False
    lead_distance: Optional[float] = None    # m, from radar
    lead_relative_speed: Optional[float] = None  # m/s, lead - ego (radar convention)

    @property
    def complete(self) -> bool:
        """True once every service has delivered at least one message."""
        return (
            self.v_ego is not None
            and self.lateral_offset is not None
            and self.left_line_offset is not None
        )


class Eavesdropper:
    """Passive subscriber assembling the attacker's view of the system."""

    def __init__(self, message_bus: MessageBus):
        self._sub_master = SubMaster(message_bus, list(EAVESDROPPED_SERVICES))
        self.messages_seen = 0
        self._last_snapshot: Optional[EavesdroppedData] = None

    def snapshot(self, time: float) -> EavesdroppedData:
        """Return the attacker's current view of the vehicle state.

        The attacker polls at the 100 Hz control rate but the sensors
        publish at 10–20 Hz, so most polls deliver no new message; in that
        case only the timestamp of the previous snapshot has changed and
        the *same object* is returned with ``time`` updated in place.  A
        poll that delivered anything returns a new object.  Callers may
        rely on that identity to skip work derived from an unchanged
        snapshot (see :meth:`repro.core.attack_engine.AttackEngine.output_hook`).
        """
        fresh = self._sub_master.update()
        self.messages_seen += fresh
        last = self._last_snapshot
        if fresh == 0 and last is not None:
            last.time = time
            return last

        gps = self._sub_master["gpsLocationExternal"]
        model = self._sub_master["modelV2"]
        radar = self._sub_master["radarState"]

        v_ego = gps.speed if gps is not None else None

        lateral_offset = left_line = right_line = lane_width = None
        if model is not None:
            lateral_offset = model.lateral_offset
            lane_width = model.lane_width
            if len(model.lane_lines) >= 2:
                left_line = model.lane_lines[0].offset
                right_line = model.lane_lines[1].offset

        has_lead = False
        lead_distance = lead_relative_speed = None
        if radar is not None and radar.lead_one is not None and radar.lead_one.status:
            has_lead = True
            lead_distance = radar.lead_one.d_rel
            lead_relative_speed = radar.lead_one.v_rel

        snapshot = EavesdroppedData(
            time=time,
            v_ego=v_ego,
            lateral_offset=lateral_offset,
            left_line_offset=left_line,
            right_line_offset=right_line,
            lane_width=lane_width,
            has_lead=has_lead,
            lead_distance=lead_distance,
            lead_relative_speed=lead_relative_speed,
        )
        self._last_snapshot = snapshot
        return snapshot

    def close(self) -> None:
        """Unsubscribe from all services."""
        self._sub_master.close()
