"""Lockstep batched execution of many simulations through the kernel.

A fault-injection campaign is thousands of *independent* short runs, each
spending its time in the same eight pipeline stages.  The
:class:`BatchRunner` steps ``N`` runs in lockstep — one inner loop per
stage over all active runs (``sense`` over the whole batch, then
``perceive`` over the whole batch, …) — so the per-step work that is
structurally identical across runs can be amortised over the batch's
dense rows:

* the four hot CAN encodes per run-step collapse into one vectorised
  :class:`~repro.can.batch_codec.BatchMessageCodec` pass per message;
* the encode→send→decode round trip of each cycle (the car reading back
  its own state frames, the actuators decoding the just-sent commands)
  collapses into an array read-back — legal because the payload a
  transformer-free bus stores is exactly the payload the codec produced,
  and the physical values a decoder recovers from it are
  ``raw * factor + offset`` over the raws the codec retained;
* the planner arithmetic, the output-stage safety limits and the ego
  physics integration run as **ufunc pipelines over structure-of-arrays
  columns** (:class:`BatchState`): the plan stage gathers each run's
  perception inputs once, then
  :func:`~repro.adas.longitudinal.update_long_columns`,
  :func:`~repro.adas.lateral.update_lat_columns` and
  :func:`~repro.adas.openpilot.apply_output_limit_columns` compute every
  run's plan in one vectorised pass; the actuate stage integrates every
  ego vehicle with :func:`~repro.sim.vehicle.step_ego_columns`;
* the TTC/lane/collision/hazard detectors read the SoA columns
  cross-run: cheap vectorised predicates decide which (few) rows need
  their scalar detector dispatched this cycle, and persistent latch
  mirrors (lane-invasion edges, pending hazards, live collisions) keep
  the dispatch set exact.

Divergence mask
---------------

The vectorised columns cover the *dense* fast path only.  The active
list is partitioned — ``active[:n_dense]`` are dense rows, the rest are
*demoted* — and a scan at the top of every cycle demotes any dense run
that diverged: a CAN transformer attached (MITM deployment), the driver
intervened, or an alert was raised.  Runs with IDM actors never enter
the dense region.  Demoted rows run the existing per-run scalar stages
inside the same lockstep loop, so correctness never depends on the
vectorised path covering every branch; demotion is permanent (row state
is re-gathered from the per-run objects each cycle, so the hand-off is
trivially safe at any cycle boundary).

Runs that finish (early-stop after a collision, or ``max_steps``) are
retired immediately and their slot refilled from the pending queue, so
batches stay dense and the codec always works on a contiguous prefix.

Tiers
-----

Every cycle walks the same eight stage columns.  Vectorising pays a
fixed numpy dispatch cost per cycle, so :meth:`BatchRunner._cycle`
picks the cycle's tier once, from its dense row count, as the one
prefix length every column vectorises:

* **dense** — at least ``DENSE_MIN_ACTIVE`` (32) dense rows: the dense
  prefix runs the batched CAN codec (sense, perceive, inject, drive)
  and the SoA plan/actuate/detect columns, and every later row its own
  scalar stages;
* **scalar** — fewer dense rows: every row runs its own scalar stages,
  in lockstep, at about what sequential runs cost.

Because the column walk is the same on both tiers, the runner's one
timing loop (``perf.batch.cycle_ns`` per cycle, plus
``perf.stage.<name>.ns`` per column when stage probes are on) covers
every cycle, and whatever a stage does — the flight recorder's capture
ends the record stage — happens on both tiers.

``DENSE_MIN_ACTIVE`` sits inside the band of widths where
``python benchmarks/profile_run.py --crossover`` sees the two tiers
trade places (the constant's comment gives the figures).  A default
16-wide batch runs the scalar tier, and only wide batches of uniform
runs reach the dense one.  The tier can change every cycle as rows
demote, retire and refill; ``_cycle`` runs the hand-offs where it picks
the tier — follower rings and detector mirrors re-synced from the run
objects when a dense cycle follows scalar ones, handed back to them
when a scalar cycle follows dense ones — so every switch is bit-exact.

Equivalence
-----------

Batched execution is **bit-for-bit identical** to sequential execution:
runs share no mutable state (each has its own buses, world, ADAS, RNGs),
the vectorised codec is byte-identical to the scalar encoder, its
read-back reproduces the scalar decode arithmetic exactly, and every
vectorised column reproduces its scalar stage's floating-point operation
sequence exactly (transcendental calls where numpy's ufunc differs from
``libm`` in the last ulp — ``tan``, ``atan``, ``atan2`` — stay per-row
``math`` loops).  The golden-run suite replays all 21 goldens through
``batch_size`` 1, 8, 64 and 256 at the production threshold, and
through 1, 8 and 64 with ``DENSE_MIN_ACTIVE`` forced to 1 so that the
dense tier runs at every width
(``tests/integration/test_batch_equivalence.py``).

Composition with the process pool: batching amortises Python dispatch
*within* a worker, the pool scales *across* cores — ``workers=N``
together with ``batch_size=M`` runs N lockstep batches of M.
"""

from time import perf_counter_ns
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.adas.lateral import update_lat_columns
from repro.adas.longitudinal import update_long_columns
from repro.adas.openpilot import apply_output_limit_columns
from repro.analysis.hazards import HazardType
from repro.analysis.metrics import RunResult
from repro.can.batch_codec import BatchMessageCodec
from repro.can.honda import (
    ACC_CONTROL_LAYOUT,
    POWERTRAIN_LAYOUT,
    STEERING_CONTROL_LAYOUT,
    STEERING_SENSORS_LAYOUT,
)
from repro.kernel.context import StepContext
from repro.kernel.stages import DriveStage
from repro.sim.units import DT
from repro.sim.vehicle import step_ego_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.strategies import AttackStrategy
    from repro.injection.engine import Simulation, SimulationConfig
    from repro.obs.recorder import FlightRecorderConfig
    from repro.telemetry import Telemetry

#: One unit of batched work: a simulation configuration plus the strategy
#: instance for that run (``None`` for attack-free runs).  Strategy
#: objects must not be shared between tasks — lockstep execution keeps
#: many strategies live at once.
BatchTask = Tuple["SimulationConfig", Optional["AttackStrategy"]]

ProgressCallback = Callable[[int, int], None]

#: Default lockstep width, small enough that short attacked runs do not
#: leave the tail of a huge batch running alone.  It is below
#: ``DENSE_MIN_ACTIVE``, so a default batch runs the scalar tier, which
#: costs about what sequential runs cost.
DEFAULT_BATCH_SIZE = 16

#: Tier threshold: a cycle with fewer *dense* rows runs every row's own
#: scalar stages, because the codec passes and the SoA column kernels
#: pay a fixed numpy dispatch cost per cycle.  ``python
#: benchmarks/profile_run.py --crossover`` times attack-free S1–S4 rows
#: (1000 steps, best of three, µs per row-step) at each width with the
#: dense tier forced on and off.  Medians of three sweeps on a 2-vCPU
#: Intel Xeon VM, dense against scalar: 71.1 against 55.6 at 16 rows,
#: 64.4 against 49.0 at 24, 45.9 against 46.1 at 32, 43.5 against 54.7
#: at 48, 41.5 against 48.9 at 64.  The dense tier won at every wider
#: width from 24 rows in one sweep, from 32 in one and from 48 in one,
#: so 32 is the middle of that crossover.  Both tiers give identical
#: results, so the threshold only picks the cheaper.
DENSE_MIN_ACTIVE = 32

#: Width of the follower reaction-delay ring (entries per row).  The ring
#: holds one ``(time, gap, ego_speed)`` sample per step over the
#: follower's perception delay, so it needs ``delay / DT`` slots plus
#: transient slack; runs whose follower delay does not fit fall back to
#: the per-run traffic path (``traffic_vec`` False), never to a wrong
#: answer.
FOLLOWER_RING = 192

#: Stage names of the lockstep columns, matching the scalar pipeline's
#: stage names so batched per-stage telemetry lands in the same
#: ``perf.stage.{name}.ns`` histograms the ``ProbedPipeline`` uses.
_STAGE_NAMES = (
    "sense",
    "perceive",
    "plan",
    "inject",
    "drive",
    "actuate",
    "detect",
    "record",
)

_H1 = HazardType.UNSAFE_FOLLOWING_DISTANCE
_H2 = HazardType.UNNECESSARY_STOP
_H3 = HazardType.OUT_OF_LANE

#: Shared empty list assigned to ``ctx.new_hazards`` for dense rows whose
#: hazard predicates cleared (the record stage only truth-tests and
#: iterates it, never mutates).
_NO_NEW_HAZARDS: List = []


#: Per-run planner / physics / road / detector constants, loaded once at
#: admission into a dense row and swapped with the row on compaction.
_PARAM_F8_COLUMNS = (
    # longitudinal planner
    "p_cruise_gain",
    "p_gap_gain",
    "p_closing_gain",
    "p_follow_headway",
    "p_standstill",
    "p_long_brake_min",
    "p_long_accel_max",
    # lateral planner (its own vehicle geometry, distinct from physics)
    "p_lane_gain",
    "p_heading_gain",
    "p_curv_ff",
    "p_sat_angle",
    "p_lat_wheelbase",
    "p_lat_steer_ratio",
    "p_lat_max_steer",
    # ADAS output limits
    "p_out_brake_min",
    "p_out_accel_max",
    "p_steer_delta_max",
    # ego physics
    "p_max_accel_phys",
    "p_max_decel_phys",
    "p_accel_alpha",
    "p_steer_beta",
    "p_steer_max_change",
    "p_wheelbase",
    "p_steer_ratio",
    "p_max_steer_deg",
    # road geometry + environmental disturbance
    "p_curve_start",
    "p_curve_transition",
    "p_curvature_max",
    "p_dist_amp",
    "p_dist_omega",
    "p_dist_phase",
    # follower model + body geometry (traffic columns)
    "p_fl_delay",
    "p_fl_headway",
    "p_fl_decel",
    "p_fl_half_len",
    "p_ego_half_len",
    "p_ego_half_width",
    "p_ld_half_len",
    "p_ld_d",
    # lane / roadside landmarks
    "p_left_lane_line",
    "p_right_lane_line",
    "p_lane_left_limit",
    "p_lane_right_limit",
    "p_right_guardrail",
    "p_left_road_edge",
    # hazard thresholds
    "p_h1_min_gap",
    "p_h1_headway",
    "p_h2_floor",
    "p_h2_clear",
    "p_h2_warmup",
    "p_h3_left_limit",
    "p_h3_right_limit",
)

#: Persistent detector latch mirrors (True = pending / live), kept exact
#: by the dispatch loops and resynced from the per-run monitors when a
#: dense cycle follows scalar ones.
_DETECT_BOOL_COLUMNS = (
    "det_inv_left",
    "det_inv_right",
    "det_out",
    "det_h1",
    "det_h2",
    "det_h3",
    "det_coll_scalar",
    "det_had_coll",
    "det_had_haz",
)

#: Per-cycle float columns: the detect kinematics, plan gather/outputs,
#: actuator commands, physics state, executed commands, detect extras
#: and shared scratch.
_CYCLE_F8_COLUMNS = (
    "time",
    "ego_s",
    "ego_d",
    "ego_speed",
    "lead_gap",
    "lead_speed",
    "plan_v_ego",
    "plan_v_cruise",
    "plan_steer_meas",
    "plan_prev_steer",
    "plan_d_rel",
    "plan_v_rel",
    "plan_lat_off",
    "plan_head_err",
    "plan_model_curv",
    "plan_accel",
    "plan_v_target",
    "plan_lead_dist",
    "plan_lead_speed",
    "plan_ttc",
    "plan_req_decel",
    "plan_curvature",
    "plan_desired_deg",
    "plan_output_deg",
    "cmd_accel",
    "cmd_brake",
    "cmd_steer",
    "ph_time",
    "ph_s",
    "ph_d",
    "ph_heading",
    "ph_speed",
    "ph_accel",
    "ph_steer",
    "ph_yaw",
    "ex_accel",
    "ex_brake",
    "ex_steer",
    "ld_s",
    "ld_speed",
    "ld_accel",
    "fl_s",
    "fl_speed",
    "fl_accel",
    "left_edge",
    "right_edge",
    "lead_d",
    "w0",
    "w1",
    "w2",
    "w3",
    "w4",
    "w5",
    "w6",
    "w7",
)

_CYCLE_BOOL_COLUMNS = (
    "plan_has_lead",
    "plan_has_model",
    "plan_saturated",
    "has_lead",
)

#: Columns that carry state *across* cycles for a dense row and must
#: follow the row through partition swaps.  Everything else is gathered
#: fresh from the per-run objects every cycle.  (The follower ring's 2-D
#: arrays are persistent too; ``swap_rows`` handles them separately.)
_PERSISTENT_COLUMNS = (
    _PARAM_F8_COLUMNS
    + ("p_sat_frames",)
    + _DETECT_BOOL_COLUMNS
    + ("ld_on", "fl_on", "ld_target", "ld_rate", "ld_next_start", "fh_head", "fh_tail")
    # The ego physics columns persist too: after a dense cycle they are
    # bit-equal to the scattered per-run objects, letting the next dense
    # gather skip rows whose ``ph_fresh`` flag survived (no scalar
    # actuate touched their objects in between).
    + ("ph_time", "ph_s", "ph_d", "ph_heading", "ph_speed", "ph_accel", "ph_steer", "ph_fresh")
    # The traffic physics columns ride the same skip-gather contract, so
    # they are cross-cycle state as well and must follow their row
    # through partition swaps.
    + ("ld_s", "ld_speed", "ld_accel", "fl_s", "fl_speed", "fl_accel")
)


class BatchState:
    """Full SoA residency for the dense fast path.

    Kinematics the detectors read (``lead_gap``/``lead_speed`` are NaN
    for rows without a tracked lead), plan columns, actuator-command
    columns, ego physics columns, per-run constants and detector latch
    mirrors — one row per active run, dense rows in the ``[0, n_dense)``
    prefix.  The state policy is *per-run objects stay authoritative*:
    each cycle gathers the dense rows' inputs from their run objects,
    runs the vectorised column kernels, and scatters the outputs back,
    which makes demoting a row to the scalar path safe at any cycle
    boundary.
    """

    # detect kinematics
    time: np.ndarray
    ego_s: np.ndarray
    ego_d: np.ndarray
    ego_speed: np.ndarray
    lead_gap: np.ndarray
    lead_speed: np.ndarray
    # longitudinal planner params
    p_cruise_gain: np.ndarray
    p_gap_gain: np.ndarray
    p_closing_gain: np.ndarray
    p_follow_headway: np.ndarray
    p_standstill: np.ndarray
    p_long_brake_min: np.ndarray
    p_long_accel_max: np.ndarray
    # lateral planner params
    p_lane_gain: np.ndarray
    p_heading_gain: np.ndarray
    p_curv_ff: np.ndarray
    p_sat_angle: np.ndarray
    p_lat_wheelbase: np.ndarray
    p_lat_steer_ratio: np.ndarray
    p_lat_max_steer: np.ndarray
    p_sat_frames: np.ndarray
    # ADAS output limits
    p_out_brake_min: np.ndarray
    p_out_accel_max: np.ndarray
    p_steer_delta_max: np.ndarray
    # ego physics params
    p_max_accel_phys: np.ndarray
    p_max_decel_phys: np.ndarray
    p_accel_alpha: np.ndarray
    p_steer_beta: np.ndarray
    p_steer_max_change: np.ndarray
    p_wheelbase: np.ndarray
    p_steer_ratio: np.ndarray
    p_max_steer_deg: np.ndarray
    # road / disturbance params
    p_curve_start: np.ndarray
    p_curve_transition: np.ndarray
    p_curvature_max: np.ndarray
    p_dist_amp: np.ndarray
    p_dist_omega: np.ndarray
    p_dist_phase: np.ndarray
    # landmarks
    p_left_lane_line: np.ndarray
    p_right_lane_line: np.ndarray
    p_lane_left_limit: np.ndarray
    p_lane_right_limit: np.ndarray
    p_right_guardrail: np.ndarray
    p_left_road_edge: np.ndarray
    # hazard thresholds
    p_h1_min_gap: np.ndarray
    p_h1_headway: np.ndarray
    p_h2_floor: np.ndarray
    p_h2_clear: np.ndarray
    p_h2_warmup: np.ndarray
    p_h3_left_limit: np.ndarray
    p_h3_right_limit: np.ndarray
    # detector latch mirrors
    det_inv_left: np.ndarray
    det_inv_right: np.ndarray
    det_out: np.ndarray
    det_h1: np.ndarray
    det_h2: np.ndarray
    det_h3: np.ndarray
    det_coll_scalar: np.ndarray
    det_had_coll: np.ndarray
    det_had_haz: np.ndarray
    # plan gather / output columns
    plan_v_ego: np.ndarray
    plan_v_cruise: np.ndarray
    plan_steer_meas: np.ndarray
    plan_prev_steer: np.ndarray
    plan_d_rel: np.ndarray
    plan_v_rel: np.ndarray
    plan_lat_off: np.ndarray
    plan_head_err: np.ndarray
    plan_model_curv: np.ndarray
    plan_accel: np.ndarray
    plan_v_target: np.ndarray
    plan_lead_dist: np.ndarray
    plan_lead_speed: np.ndarray
    plan_ttc: np.ndarray
    plan_req_decel: np.ndarray
    plan_curvature: np.ndarray
    plan_desired_deg: np.ndarray
    plan_output_deg: np.ndarray
    plan_sat_count: np.ndarray
    plan_has_lead: np.ndarray
    plan_has_model: np.ndarray
    plan_saturated: np.ndarray
    # actuator pre-hook command columns
    cmd_accel: np.ndarray
    cmd_brake: np.ndarray
    cmd_steer: np.ndarray
    # ego physics columns
    ph_time: np.ndarray
    ph_s: np.ndarray
    ph_d: np.ndarray
    ph_heading: np.ndarray
    ph_speed: np.ndarray
    ph_accel: np.ndarray
    ph_steer: np.ndarray
    ph_yaw: np.ndarray
    # executed (post-drive) command columns
    ex_accel: np.ndarray
    ex_brake: np.ndarray
    ex_steer: np.ndarray
    # traffic columns: scenario lead profile state + follower delay ring
    ld_on: np.ndarray
    fl_on: np.ndarray
    ld_target: np.ndarray
    ld_rate: np.ndarray
    ld_next_start: np.ndarray
    ld_s: np.ndarray
    ld_speed: np.ndarray
    ld_accel: np.ndarray
    fl_s: np.ndarray
    fl_speed: np.ndarray
    fl_accel: np.ndarray
    fh_t: np.ndarray
    fh_gap: np.ndarray
    fh_v: np.ndarray
    fh_head: np.ndarray
    fh_tail: np.ndarray
    ph_fresh: np.ndarray
    # detect gather extras
    left_edge: np.ndarray
    right_edge: np.ndarray
    lead_d: np.ndarray
    has_lead: np.ndarray
    # shared scratch (reused by every column kernel)
    w0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray
    w5: np.ndarray
    w6: np.ndarray
    w7: np.ndarray

    def __init__(self, capacity: int):
        for name in _PARAM_F8_COLUMNS:
            setattr(self, name, np.zeros(capacity))
        for name in _CYCLE_F8_COLUMNS:
            setattr(self, name, np.zeros(capacity))
        for name in _DETECT_BOOL_COLUMNS:
            setattr(self, name, np.zeros(capacity, dtype=bool))
        for name in _CYCLE_BOOL_COLUMNS:
            setattr(self, name, np.zeros(capacity, dtype=bool))
        self.p_sat_frames = np.zeros(capacity, dtype=np.int64)
        self.plan_sat_count = np.zeros(capacity, dtype=np.int64)
        self.ld_on = np.zeros(capacity, dtype=bool)
        self.fl_on = np.zeros(capacity, dtype=bool)
        self.ld_target = np.zeros(capacity)
        self.ld_rate = np.zeros(capacity)
        self.ld_next_start = np.zeros(capacity)
        self.fh_head = np.zeros(capacity, dtype=np.int64)
        self.fh_tail = np.zeros(capacity, dtype=np.int64)
        self.fh_t = np.zeros((capacity, FOLLOWER_RING))
        self.fh_gap = np.zeros((capacity, FOLLOWER_RING))
        self.fh_v = np.zeros((capacity, FOLLOWER_RING))
        self.ph_fresh = np.zeros(capacity, dtype=bool)

    # -- row lifecycle -----------------------------------------------------

    def load_row(self, row: int, slot: "_Slot") -> None:
        """Load a newly admitted dense run's constants into ``row``.

        Derived constants (``alpha``/``beta`` lags, slew per step, lane
        limits with margins) are precomputed here with the same Python
        float arithmetic the scalar stages use per step, so the values
        are bit-identical.
        """
        op = slot.openpilot
        lp = op.long_planner.params
        self.p_cruise_gain[row] = lp.cruise_gain
        self.p_gap_gain[row] = lp.gap_gain
        self.p_closing_gain[row] = lp.closing_gain
        self.p_follow_headway[row] = lp.follow_time_headway
        self.p_standstill[row] = lp.standstill_distance
        self.p_long_brake_min[row] = lp.planner_limits.brake_min
        self.p_long_accel_max[row] = lp.planner_limits.accel_max

        latp = op.lat_planner.params
        self.p_lane_gain[row] = latp.lane_gain
        self.p_heading_gain[row] = latp.heading_gain
        self.p_curv_ff[row] = latp.curvature_feedforward
        self.p_sat_angle[row] = latp.saturation_angle_deg
        self.p_sat_frames[row] = latp.saturation_frames
        lat_veh = op.lat_planner.vehicle
        self.p_lat_wheelbase[row] = lat_veh.wheelbase
        self.p_lat_steer_ratio[row] = lat_veh.steering_ratio
        self.p_lat_max_steer[row] = lat_veh.max_steering_wheel_deg

        out_limits = op.config.output_limits
        self.p_out_brake_min[row] = out_limits.brake_min
        self.p_out_accel_max[row] = out_limits.accel_max
        self.p_steer_delta_max[row] = out_limits.steer_delta_max_deg

        world = slot.world
        veh = world.ego.params
        self.p_max_accel_phys[row] = veh.max_accel_physical
        self.p_max_decel_phys[row] = veh.max_decel_physical
        self.p_accel_alpha[row] = DT / (veh.accel_time_constant + DT)
        self.p_steer_beta[row] = DT / (veh.steer_time_constant + DT)
        self.p_steer_max_change[row] = veh.max_steer_rate_deg_s * DT
        self.p_wheelbase[row] = veh.wheelbase
        self.p_steer_ratio[row] = veh.steering_ratio
        self.p_max_steer_deg[row] = veh.max_steering_wheel_deg

        road = world.road
        spec = road.spec
        self.p_curve_start[row] = spec.curve_start
        self.p_curve_transition[row] = spec.curve_transition
        self.p_curvature_max[row] = spec.curvature_max
        self.p_dist_amp[row] = world.config.disturbance_amplitude
        self.p_dist_omega[row] = world._disturbance_omega
        self.p_dist_phase[row] = world._disturbance_phase

        lane = slot.lane_monitor
        self.p_left_lane_line[row] = road.left_lane_line
        self.p_right_lane_line[row] = road.right_lane_line
        self.p_lane_left_limit[row] = road.left_lane_line + lane.out_of_lane_margin
        self.p_lane_right_limit[row] = road.right_lane_line - lane.out_of_lane_margin
        self.p_right_guardrail[row] = road.right_guardrail
        self.p_left_road_edge[row] = road.left_road_edge

        hz = slot.hazard_monitor.params
        self.p_h1_min_gap[row] = hz.h1_min_gap
        self.p_h1_headway[row] = hz.h1_headway
        self.p_h2_floor[row] = hz.h2_speed_floor
        self.p_h2_clear[row] = hz.h2_clear_distance
        self.p_h2_warmup[row] = hz.h2_warmup
        self.p_h3_left_limit[row] = road.left_lane_line + hz.out_of_lane_margin
        self.p_h3_right_limit[row] = road.right_lane_line - hz.out_of_lane_margin

        self.p_ego_half_len[row] = world.ego._half_length
        self.p_ego_half_width[row] = world.ego._half_width
        self.ph_fresh[row] = False
        lead = slot.lead_vehicle
        self.ld_on[row] = lead is not None
        if lead is not None:
            self.p_ld_half_len[row] = lead._half_length
            # A traffic-vec lead never changes lane (no lane_change, no
            # dynamic selection), so its lateral offset is a constant.
            self.p_ld_d[row] = lead.state.d
            self.load_lead_phase(row, lead)
        follower = slot.follower_vehicle
        self.fl_on[row] = follower is not None
        if follower is not None:
            self.p_fl_delay[row] = follower.reaction_delay
            self.p_fl_headway[row] = follower.desired_headway
            self.p_fl_decel[row] = follower.max_decel
            self.p_fl_half_len[row] = follower._half_length
            self.seed_follower_ring(row, follower)

        ctx = slot.ctx
        self.det_coll_scalar[row] = bool(ctx.others) or ctx.follower is not None
        self.sync_detect_row(row, slot)

    def load_lead_phase(self, row: int, lead) -> None:
        """Mirror the lead's active maneuver phase into ``row``.

        ``ld_target`` is NaN while no phase is active (or the active
        phase holds speed): every vectorised comparison against it is
        False, reproducing the scalar ``target is None`` branch.
        ``ld_next_start`` is the clock value at which the mirror must be
        re-derived (inf once the profile is exhausted); because the
        lead's own ``_phase_index`` advances monotonically through
        ``_active_phase``, the mirror self-heals even if scalar cycles
        stepped the object in between.
        """
        profile = lead.profile
        index = lead._phase_index
        target = profile[index - 1].target_speed if index > 0 else None
        self.ld_target[row] = float("nan") if target is None else target
        self.ld_rate[row] = profile[index - 1].rate if index > 0 else 0.0
        self.ld_next_start[row] = (
            profile[index].start_time if index < len(profile) else float("inf")
        )

    def seed_follower_ring(self, row: int, follower) -> None:
        """Object history → ring, on admission and after scalar cycles."""
        history = follower._pending_gap_history
        for k, (t, gap, v) in enumerate(history):
            self.fh_t[row, k] = t
            self.fh_gap[row, k] = gap
            self.fh_v[row, k] = v
        self.fh_head[row] = 0
        self.fh_tail[row] = len(history)

    def flush_follower_ring(self, row: int, follower) -> None:
        """Ring → object history, before any scalar step can read it."""
        t_row = self.fh_t[row]
        gap_row = self.fh_gap[row]
        v_row = self.fh_v[row]
        follower._pending_gap_history = [
            (
                t_row[k % FOLLOWER_RING].item(),
                gap_row[k % FOLLOWER_RING].item(),
                v_row[k % FOLLOWER_RING].item(),
            )
            for k in range(int(self.fh_head[row]), int(self.fh_tail[row]))
        ]

    def sync_detect_row(self, row: int, slot: "_Slot") -> None:
        """Refresh ``row``'s detector latch mirrors from the run objects."""
        lane = slot.lane_monitor
        self.det_inv_left[row] = lane._invading_left
        self.det_inv_right[row] = lane._invading_right
        self.det_out[row] = lane.report.out_of_lane
        events = slot.hazard_monitor.events
        self.det_h1[row] = _H1 not in events
        self.det_h2[row] = _H2 not in events
        self.det_h3[row] = _H3 not in events
        ctx = slot.ctx
        self.det_had_coll[row] = ctx.collision is not None
        self.det_had_haz[row] = bool(ctx.new_hazards)

    def swap_rows(self, i: int, j: int) -> None:
        """Swap the persistent columns of rows ``i`` and ``j``."""
        for name in _PERSISTENT_COLUMNS:
            col = getattr(self, name)
            col[i], col[j] = col[j], col[i]
        if self.fl_on[i] or self.fl_on[j]:
            for ring in (self.fh_t, self.fh_gap, self.fh_v):
                ring[[i, j]] = ring[[j, i]]

    def gather_row(self, i: int, ctx: StepContext) -> None:
        """Write one run's post-actuate context kinematics into row ``i``."""
        self.time[i] = ctx.end_time
        self.ego_s[i] = ctx.ego_s
        self.ego_d[i] = ctx.ego_d
        self.ego_speed[i] = ctx.ego_speed
        if ctx.lead_gap is None:
            self.lead_gap[i] = np.nan
            self.lead_speed[i] = np.nan
        else:
            self.lead_gap[i] = ctx.lead_gap
            self.lead_speed[i] = ctx.lead_speed
        self.left_edge[i] = ctx.ego_left_edge
        self.right_edge[i] = ctx.ego_right_edge
        self.lead_d[i] = ctx.lead_d
        self.has_lead[i] = ctx.lead is not None


class _Slot:
    """One active run inside the lockstep batch."""

    __slots__ = (
        "index",
        "sim",
        "world",
        "openpilot",
        "ctx",
        "result",
        "remaining",
        "dense_capable",
        "traffic_vec",
        "lead_vehicle",
        "follower_vehicle",
        "sent",
        "hazard_monitor",
        "lane_monitor",
        "collision_detector",
        "sense_run",
        "perceive_run",
        "plan_run",
        "inject_run",
        "drive_stage",
        "drive_run",
        "actuate_run",
        "detect_run",
        "record_run",
    )

    def __init__(self, index: int, sim: "Simulation"):
        self.index = index
        self.sim = sim
        self.world = sim.world
        self.openpilot = sim.openpilot
        result, ctx, pipeline = sim.prepare()
        self.result = result
        self.ctx = ctx
        self.remaining = sim.config.max_steps
        # The dense path's codec read-back requires the bus to store
        # exactly the bytes the codec produced, which a transformer
        # breaks, and IDM actors' car-following update is inherently
        # per-run; such runs use their scalar stages (still inside the
        # lockstep loop).
        self.dense_capable = not (sim.world.can_bus.has_transformers or sim.world._any_idm)
        # The traffic columns cover the static-lane scenario lead
        # (profile-driven; `_dynamic_lead` rules out scripted actors and
        # lead lane changes) plus the delayed-perception follower, if its
        # history fits the ring.  Anything else keeps the per-run
        # World.advance_traffic() inside the dense actuate column.
        world = sim.world
        follower = world.follower
        self.traffic_vec = (
            self.dense_capable
            and not world._dynamic_lead
            and (
                follower is None
                or int(follower.reaction_delay / DT) + 8 <= FOLLOWER_RING
            )
        )
        self.lead_vehicle = world.scenario_lead if self.traffic_vec else None
        self.follower_vehicle = follower if self.traffic_vec else None
        self.sent = False
        self.hazard_monitor = sim.hazard_monitor
        self.lane_monitor = sim.world.lane_monitor
        self.collision_detector = sim.world.collision_detector
        self.sense_run = pipeline.stage("sense").run
        self.perceive_run = pipeline.stage("perceive").run
        self.plan_run = pipeline.stage("plan").run
        self.inject_run = pipeline.stage("inject").run
        self.drive_stage = cast(DriveStage, pipeline.stage("drive"))
        self.drive_run = self.drive_stage.run
        self.actuate_run = pipeline.stage("actuate").run
        self.detect_run = pipeline.stage("detect").run
        self.record_run = pipeline.stage("record").run


class BatchRunner:
    """Drives up to ``batch_size`` simulations in lockstep through the kernel.

    Args:
        batch_size: Lockstep width (number of preallocated run slots and
            the row count of the shared SoA arrays).
        telemetry: Optional :class:`~repro.telemetry.Telemetry` handle.
            The batched cost model is per lockstep *cycle*, not per run,
            so the runner times every cycle (``perf.batch.cycle_ns``,
            with the active-row count in ``perf.batch.cycle_rows``) and,
            when its config's ``probe_stages`` is on, every stage column
            of it, in the scalar probe's ``perf.stage.{name}.ns``
            histograms; it also records the same run-completion metrics
            the scalar path records at retirement.  The slot simulations
            themselves run unprobed — per-run stage wrapping would defeat
            the lockstep amortisation it is measuring.
    """

    def __init__(
        self,
        batch_size: int = DEFAULT_BATCH_SIZE,
        telemetry: Optional["Telemetry"] = None,
        recorder: Optional["FlightRecorderConfig"] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.telemetry = telemetry
        self.recorder = recorder
        self.state = BatchState(batch_size)
        self._n_dense = 0
        self._n_vec = 0
        self._mirrors_stale = False
        self._send_slots: List[_Slot] = []
        self._columns: Tuple[Callable[[List[_Slot]], None], ...] = (
            self._sense_column,
            self._perceive_column,
            self._plan_column,
            self._inject_column,
            self._drive_column,
            self._actuate_column,
            self._detect_column,
            self._record_column,
        )
        # Built from the layouts the scalar stages pack with, so both
        # cycles put the same signals and constants into every frame.
        self._powertrain, self._steering_sensors, self._steering_control, self._acc_control = (
            BatchMessageCodec(
                layout.plan,
                layout.signals,
                batch_size,
                constants=layout.constants,
                integral=layout.integral,
            )
            for layout in (
                POWERTRAIN_LAYOUT,
                STEERING_SENSORS_LAYOUT,
                STEERING_CONTROL_LAYOUT,
                ACC_CONTROL_LAYOUT,
            )
        )

    # -- partition maintenance ---------------------------------------------

    def _swap(self, active: List[_Slot], i: int, j: int) -> None:
        if i == j:
            return
        active[i], active[j] = active[j], active[i]
        self.state.swap_rows(i, j)

    def _demote(self, active: List[_Slot], position: int) -> None:
        """Move a diverged dense row into the demoted region (permanent),
        handing its follower history to the run object the scalar
        actuate stage advances from now on."""
        follower = active[position].follower_vehicle
        if follower is not None and not self._mirrors_stale:
            self.state.flush_follower_ring(position, follower)
        self._swap(active, position, self._n_dense - 1)
        self._n_dense -= 1

    def _remove(self, active: List[_Slot], position: int) -> None:
        """Retire the (finalized) slot at ``position``, keeping the
        partition intact."""
        if position < self._n_dense:
            self._swap(active, position, self._n_dense - 1)
            self._n_dense -= 1
            position = self._n_dense
        last = len(active) - 1
        self._swap(active, position, last)
        active.pop()

    def run_tasks(
        self, tasks: Sequence[BatchTask], progress: Optional[ProgressCallback] = None
    ) -> List[RunResult]:
        """Run every task, lockstep-batched; results are in task order."""
        from repro.injection.engine import Simulation  # local: avoids an import cycle

        tasks = list(tasks)
        total = len(tasks)
        results: List[Optional[RunResult]] = [None] * total
        pending: Iterator[Tuple[int, BatchTask]] = iter(enumerate(tasks))
        active: List[_Slot] = []
        live_strategies: set = set()
        self._n_dense = 0
        self._mirrors_stale = False

        def admit() -> bool:
            for index, (config, strategy) in pending:
                if strategy is not None:
                    if id(strategy) in live_strategies:
                        raise ValueError(
                            "batched execution requires one strategy instance per "
                            "task (a strategy object is shared between tasks that "
                            "would run concurrently)"
                        )
                    live_strategies.add(id(strategy))
                # Only thread the recorder through when configured, so
                # recorder-less batches keep the plain constructor call.
                if self.recorder is not None:
                    sim = Simulation(config, strategy, recorder=self.recorder)
                else:
                    sim = Simulation(config, strategy)
                slot = _Slot(index, sim)
                position = len(active)
                active.append(slot)
                if slot.dense_capable:
                    self._swap(active, position, self._n_dense)
                    self.state.load_row(self._n_dense, slot)
                    self._n_dense += 1
                return True
            return False

        while len(active) < self.batch_size and admit():
            pass

        telemetry = self.telemetry
        cycle_hist = cycle_rows = None
        stage_hists: Optional[Tuple] = None
        if telemetry is not None:
            cycle_hist = telemetry.metrics.histogram("perf.batch.cycle_ns")
            cycle_rows = telemetry.metrics.counter("perf.batch.cycle_rows")
            if telemetry.config.probe_stages:
                from repro.telemetry.probe import STAGE_METRIC  # local: import cycle

                stage_hists = tuple(
                    telemetry.metrics.histogram(STAGE_METRIC.format(name=name))
                    for name in _STAGE_NAMES
                )

        completed = 0
        try:
            while active:
                if cycle_hist is None:
                    self._cycle(active)
                else:
                    start_ns = perf_counter_ns()
                    self._cycle(active, stage_hists)
                    cycle_hist.record(perf_counter_ns() - start_ns)
                    cycle_rows.inc(len(active))
                retired = False
                for position in range(len(active) - 1, -1, -1):
                    slot = active[position]
                    slot.remaining -= 1
                    if not (slot.ctx.stop or slot.remaining <= 0):
                        continue
                    results[slot.index] = slot.sim.finalize(slot.result, slot.ctx)
                    if telemetry is not None:
                        telemetry.record_run(
                            slot.result,
                            steps=slot.world.step_count,
                            can_sent=slot.world.can_bus.sent_count,
                            can_tampered=slot.world.can_bus.tampered_count,
                        )
                    strategy = tasks[slot.index][1]
                    if strategy is not None:
                        live_strategies.discard(id(strategy))
                    self._remove(active, position)
                    retired = True
                    completed += 1
                    if progress is not None:
                        progress(completed, total)
                if retired:
                    while len(active) < self.batch_size and admit():
                        pass
        except BaseException:
            # The batch dies as a unit: give every in-flight run's black
            # box a chance to flush before the exception propagates.
            if self.recorder is not None:
                for slot in active:
                    slot.sim.flush_flight()
            raise
        return results  # type: ignore[return-value]  # every slot was filled

    # -- one lockstep cycle ------------------------------------------------

    def _cycle(self, active: List[_Slot], stage_hists: Optional[Tuple] = None) -> None:
        # Divergence scan: a dense row leaves the fast path the cycle
        # after a transformer attached, the driver intervened, or an
        # alert was raised (the flip cycle itself is still bit-exact —
        # the dense plan/physics/detect math is unaffected within it, and
        # the inject column sends scalar for a row whose output hook
        # attached a transformer).
        for position in range(self._n_dense - 1, -1, -1):
            slot = active[position]
            if (
                slot.world.can_bus.has_transformers
                or slot.ctx.driver_engaged
                or slot.openpilot.alert_manager.raised
            ):
                self._demote(active, position)
        # The one tier decision: every column vectorises ``active[:n_vec]``
        # and runs the scalar stages of the rest.  Between here and the
        # actuate and detect columns nothing touches the follower
        # histories or the detector latches, so the hand-offs run here.
        n_dense = self._n_dense
        state = self.state
        if n_dense >= DENSE_MIN_ACTIVE:
            self._n_vec = n_dense
            if self._mirrors_stale:
                # Dense after scalar cycles: the run objects are ahead of
                # the follower rings and the detector latch mirrors.
                for row in range(n_dense):
                    slot = active[row]
                    if slot.follower_vehicle is not None:
                        state.seed_follower_ring(row, slot.follower_vehicle)
                    state.sync_detect_row(row, slot)
                self._mirrors_stale = False
        else:
            self._n_vec = 0
            if not self._mirrors_stale:
                # Scalar after dense cycles: the scalar stages advance the
                # run objects from here on, so the follower histories go
                # back to them and the physics columns stop being fresh
                # (once is enough: only a dense actuate sets ``ph_fresh``,
                # and rows admitted meanwhile load with it False).
                for row in range(n_dense):
                    follower = active[row].follower_vehicle
                    if follower is not None:
                        state.flush_follower_ring(row, follower)
                state.ph_fresh[:n_dense] = False
                self._mirrors_stale = True
        if stage_hists is None:
            for column in self._columns:
                column(active)
            return
        for hist, column in zip(stage_hists, self._columns):
            start_ns = perf_counter_ns()
            column(active)
            hist.record(perf_counter_ns() - start_ns)

    def _sense_column(self, active: List[_Slot]) -> None:
        """Per-run sensor publications, batched car-state CAN for the
        dense prefix."""
        n_vec = self._n_vec
        if n_vec:
            powertrain = self._powertrain
            steering_sensors = self._steering_sensors
            speed_values = powertrain.values["XMISSION_SPEED"]
            accel_values = powertrain.values["ACCEL_MEASURED"]
            gas_values = powertrain.values["PEDAL_GAS"]
            brake_values = powertrain.values["BRAKE_PRESSED"]
            steer_values = steering_sensors.values["STEER_ANGLE"]
            for i in range(n_vec):
                slot = active[i]
                world = slot.world
                slot.ctx.time = world.time
                world.publish_sensors()
                speed, accel, pedal_gas, brake_pressed, steer, counter = (
                    world.batched_car_can_inputs()
                )
                speed_values[i] = speed
                accel_values[i] = accel
                gas_values[i] = pedal_gas
                brake_values[i] = brake_pressed
                powertrain.counters[i] = counter
                steer_values[i] = steer
                steering_sensors.counters[i] = counter
            powertrain_payloads = powertrain.encode(n_vec)
            sensor_payloads = steering_sensors.encode(n_vec)
            for i in range(n_vec):
                active[i].world.send_car_can_frames(powertrain_payloads[i], sensor_payloads[i])
        for slot in active[n_vec:]:
            slot.sense_run(slot.ctx)

    def _perceive_column(self, active: List[_Slot]) -> None:
        """Read-back of the car-state frames the dense prefix just encoded."""
        n_vec = self._n_vec
        if n_vec:
            v_ego = self._powertrain.physical("XMISSION_SPEED")
            a_ego = self._powertrain.physical("ACCEL_MEASURED")
            steer = self._steering_sensors.physical("STEER_ANGLE")
            for i in range(n_vec):
                slot = active[i]
                slot.world.apply_fused_car_state(
                    slot.ctx.car_state, float(v_ego[i]), float(a_ego[i]), float(steer[i])
                )
        for slot in active[n_vec:]:
            slot.perceive_run(slot.ctx)

    def _plan_column(self, active: List[_Slot]) -> None:
        """Per-run perception prelude, vectorised planner arithmetic."""
        n_vec = self._n_vec
        if n_vec:
            self._plan_dense(active, n_vec)
        for slot in active[n_vec:]:
            slot.plan_run(slot.ctx)

    def _plan_dense(self, active: List[_Slot], n_dense: int) -> None:
        """Dense plan: gather each row's perception inputs, run the
        planners and output limits as column kernels, scatter back."""
        state = self.state
        plan_v_ego = state.plan_v_ego
        plan_v_cruise = state.plan_v_cruise
        plan_steer_meas = state.plan_steer_meas
        plan_prev_steer = state.plan_prev_steer
        plan_sat_count = state.plan_sat_count
        plan_has_lead = state.plan_has_lead
        plan_d_rel = state.plan_d_rel
        plan_v_rel = state.plan_v_rel
        plan_has_model = state.plan_has_model
        plan_lat_off = state.plan_lat_off
        plan_head_err = state.plan_head_err
        plan_model_curv = state.plan_model_curv
        # Gather: the messaging round trip stays per-run (each run owns
        # its buses); dense rows are never driver-engaged (engagement
        # demotes at the cycle top, before this column).
        for j in range(n_dense):
            slot = active[j]
            ctx = slot.ctx
            openpilot = slot.openpilot
            model, radar = openpilot.plan_prelude(ctx.time, ctx.car_state, ctx.dt)
            car_state = ctx.car_state
            plan_v_ego[j] = car_state.v_ego
            plan_v_cruise[j] = car_state.cruise_speed
            plan_steer_meas[j] = car_state.steering_angle_deg
            plan_prev_steer[j] = openpilot._previous_steering_deg
            plan_sat_count[j] = openpilot.lat_planner._saturated_count
            lead = radar.lead_one if radar is not None else None
            if lead is not None and lead.status:
                plan_has_lead[j] = True
                plan_d_rel[j] = lead.d_rel
                plan_v_rel[j] = lead.v_rel
            else:
                plan_has_lead[j] = False
                plan_d_rel[j] = 0.0
                plan_v_rel[j] = 0.0
            if model is not None:
                plan_has_model[j] = True
                plan_lat_off[j] = model.lateral_offset
                plan_head_err[j] = model.heading_error
                plan_model_curv[j] = model.curvature
            else:
                plan_has_model[j] = False
                plan_lat_off[j] = 0.0
                plan_head_err[j] = 0.0
                plan_model_curv[j] = 0.0

        update_long_columns(state, n_dense)
        update_lat_columns(state, n_dense)
        apply_output_limit_columns(state, n_dense)

        # Scatter back into the per-run plan/command objects (tolist
        # converts whole columns to Python scalars in one C pass).
        accel_o = state.plan_accel[:n_dense].tolist()
        v_target_o = state.plan_v_target[:n_dense].tolist()
        has_lead_o = state.plan_has_lead[:n_dense].tolist()
        lead_dist_o = state.plan_lead_dist[:n_dense].tolist()
        lead_speed_o = state.plan_lead_speed[:n_dense].tolist()
        ttc_o = state.plan_ttc[:n_dense].tolist()
        req_decel_o = state.plan_req_decel[:n_dense].tolist()
        curvature_o = state.plan_curvature[:n_dense].tolist()
        desired_deg_o = state.plan_desired_deg[:n_dense].tolist()
        output_deg_o = state.plan_output_deg[:n_dense].tolist()
        saturated_o = state.plan_saturated[:n_dense].tolist()
        sat_count_o = state.plan_sat_count[:n_dense].tolist()
        cmd_accel_o = state.cmd_accel[:n_dense].tolist()
        cmd_brake_o = state.cmd_brake[:n_dense].tolist()
        cmd_steer_o = state.cmd_steer[:n_dense].tolist()
        for j in range(n_dense):
            slot = active[j]
            ctx = slot.ctx
            long_plan = ctx.long_plan
            long_plan.desired_accel = accel_o[j]
            long_plan.v_target = v_target_o[j]
            long_plan.has_lead = has_lead_o[j]
            long_plan.lead_distance = lead_dist_o[j]
            long_plan.lead_speed = lead_speed_o[j]
            long_plan.time_to_collision = ttc_o[j]
            long_plan.required_decel = req_decel_o[j]
            lat_plan = ctx.lat_plan
            lat_plan.desired_curvature = curvature_o[j]
            lat_plan.desired_steering_deg = desired_deg_o[j]
            lat_plan.output_steering_deg = output_deg_o[j]
            lat_plan.saturated = saturated_o[j]
            slot.openpilot.lat_planner._saturated_count = sat_count_o[j]
            pre_hook = ctx.pre_hook_command
            pre_hook.accel = cmd_accel_o[j]
            pre_hook.brake = cmd_brake_o[j]
            pre_hook.steering_angle_deg = cmd_steer_o[j]

    def _inject_column(self, active: List[_Slot]) -> None:
        """Per-run hooks/alerts/publications, batched actuator CAN for the
        dense prefix."""
        n_vec = self._n_vec
        send = self._send_slots
        send.clear()
        if n_vec:
            steering_control = self._steering_control
            acc_control = self._acc_control
            angle_values = steering_control.values["STEER_ANGLE_CMD"]
            torque_values = steering_control.values["STEER_TORQUE"]
            accel_cmd_values = acc_control.values["ACCEL_COMMAND"]
            brake_cmd_values = acc_control.values["BRAKE_COMMAND"]
            brake_req_values = acc_control.values["BRAKE_REQUEST"]
            # Dense rows are never driver-engaged here: engagement demotes
            # a row at the cycle top.
            for j in range(n_vec):
                slot = active[j]
                ctx = slot.ctx
                openpilot = slot.openpilot
                if not openpilot.emit_publish_into(ctx):
                    continue
                command = ctx.adas_command
                if openpilot.can_bus.has_transformers:
                    # An output hook just attached a transformer (within
                    # this very cycle): send scalar so the transformer
                    # applies, and leave `sent` False so the drive column
                    # decodes the (possibly tampered) frames from the bus.
                    openpilot._send_can(ctx.time, command)
                    openpilot._previous_steering_deg = command.steering_angle_deg
                    continue
                i = len(send)
                angle = command.steering_angle_deg
                angle_values[i] = angle
                torque_values[i] = angle
                accel_cmd_values[i] = command.accel
                brake_cmd_values[i] = command.brake
                counter = openpilot.advance_can_counter()
                steering_control.counters[i] = counter
                acc_control.counters[i] = counter
                send.append(slot)
            if send:
                n = len(send)
                # Derived signals as ufuncs over the gathered commands; the
                # div-then-min-then-max sequence is the scalar
                # ``clamp(angle / 100.0, -1.0, 1.0)`` bit-for-bit.
                torque = torque_values[:n]
                np.divide(torque, 100.0, out=torque)
                np.minimum(torque, 1.0, out=torque)
                np.maximum(torque, -1.0, out=torque)
                np.copyto(
                    brake_req_values[:n],
                    np.where(brake_cmd_values[:n] > 0.0, 1.0, 0.0),
                )
                steering_payloads = steering_control.encode(n)
                acc_payloads = acc_control.encode(n)
                for i, slot in enumerate(send):
                    slot.openpilot.send_can_payloads(
                        slot.ctx.time,
                        steering_payloads[i],
                        acc_payloads[i],
                        slot.ctx.adas_command.steering_angle_deg,
                    )
                    slot.sent = True
        for slot in active[n_vec:]:
            slot.inject_run(slot.ctx)

    def _drive_column(self, active: List[_Slot]) -> None:
        """Read-back of the commands the dense prefix just sent, shared
        reaction.  ``sent`` is True only from the inject to the drive
        column of one cycle."""
        send = self._send_slots
        if send:
            steering_control = self._steering_control
            acc_control = self._acc_control
            steer_cmd = steering_control.physical("STEER_ANGLE_CMD")
            accel_cmd = acc_control.physical("ACCEL_COMMAND")
            brake_cmd = acc_control.physical("BRAKE_COMMAND")
            for i, slot in enumerate(send):
                command = slot.ctx.executed_command
                accel = float(accel_cmd[i])
                brake = float(brake_cmd[i])
                command.accel = accel if accel > 0.0 else 0.0
                command.brake = brake if brake > 0.0 else 0.0
                command.steering_angle_deg = float(steer_cmd[i])
        for slot in active:
            if slot.sent:
                slot.sent = False
                slot.drive_stage.react(slot.ctx)
            else:
                slot.drive_run(slot.ctx)

    def _actuate_column(self, active: List[_Slot]) -> None:
        """Vectorised ego physics + traffic columns for the dense prefix."""
        n_vec = self._n_vec
        if n_vec:
            self._actuate_dense(active, n_vec)
        for slot in active[n_vec:]:
            slot.actuate_run(slot.ctx)

    def _actuate_dense(self, active: List[_Slot], n_dense: int) -> None:
        """Dense actuate: the dense prefix's detect kinematics are written
        in the same pass, the only rows :meth:`_detect_dense` reads."""
        state = self.state
        ex_accel = state.ex_accel
        ex_brake = state.ex_brake
        ex_steer = state.ex_steer
        ph_time = state.ph_time
        ph_s = state.ph_s
        ph_d = state.ph_d
        ph_heading = state.ph_heading
        ph_speed = state.ph_speed
        ph_accel = state.ph_accel
        ph_steer = state.ph_steer
        ld_s = state.ld_s
        ld_speed = state.ld_speed
        fl_s = state.fl_s
        fl_speed = state.fl_speed
        for j in range(n_dense):
            slot = active[j]
            command = slot.ctx.executed_command
            slot.world._last_command = command
            ex_accel[j] = command.accel
            ex_brake[j] = command.brake
            ex_steer[j] = command.steering_angle_deg
        # Physics gather, but only for rows whose columns are not
        # fresh (newly admitted, or a scalar actuate touched their
        # objects since the last dense cycle): fresh rows' columns
        # are bit-equal to the objects they were scattered into.
        for j in np.flatnonzero(~state.ph_fresh[:n_dense]):
            slot = active[j]
            world = slot.world
            ego_state = world.ego.state
            ph_time[j] = world.time
            ph_s[j] = ego_state.s
            ph_d[j] = ego_state.d
            ph_heading[j] = ego_state.heading_error
            ph_speed[j] = ego_state.speed
            ph_accel[j] = ego_state.accel
            ph_steer[j] = ego_state.steering_wheel_deg
            lead = slot.lead_vehicle
            if lead is not None:
                lead_state = lead.state
                ld_s[j] = lead_state.s
                ld_speed[j] = lead_state.speed
            follower = slot.follower_vehicle
            if follower is not None:
                follower_state = follower.state
                fl_s[j] = follower_state.s
                fl_speed[j] = follower_state.speed
        step_ego_columns(state, n_dense)
        self._advance_lead_columns(active, n_dense)
        self._advance_follower_columns(n_dense)
        ld_s_o = ld_s[:n_dense].tolist()
        ld_speed_o = ld_speed[:n_dense].tolist()
        ld_accel_o = state.ld_accel[:n_dense].tolist()
        fl_s_o = fl_s[:n_dense].tolist()
        fl_speed_o = fl_speed[:n_dense].tolist()
        fl_accel_o = state.fl_accel[:n_dense].tolist()
        # Vectorised observation: the ego geometry, lead observation
        # and detect kinematics rows that `observe_into`/`gather_row`
        # would recompute per run come straight from the columns
        # (same arithmetic, elementwise).  Non-traffic-vec rows are
        # overwritten per-run in the scatter loop below.
        nd = n_dense
        time_next = state.w0[:nd]
        np.add(ph_time[:nd], DT, out=time_next)
        front = state.w1[:nd]
        np.add(ph_s[:nd], state.p_ego_half_len[:nd], out=front)
        rear = state.w2[:nd]
        np.subtract(ph_s[:nd], state.p_ego_half_len[:nd], out=rear)
        ledge = state.w3[:nd]
        np.add(ph_d[:nd], state.p_ego_half_width[:nd], out=ledge)
        redge = state.w4[:nd]
        np.subtract(ph_d[:nd], state.p_ego_half_width[:nd], out=redge)
        ld_gap = state.w5[:nd]
        np.subtract(ld_s[:nd], state.p_ld_half_len[:nd], out=ld_gap)
        np.subtract(ld_gap, front, out=ld_gap)
        ld_on = state.ld_on[:nd]
        np.copyto(state.time[:nd], time_next)
        np.copyto(state.ego_s[:nd], ph_s[:nd])
        np.copyto(state.ego_d[:nd], ph_d[:nd])
        np.copyto(state.ego_speed[:nd], ph_speed[:nd])
        np.copyto(state.lead_gap[:nd], np.where(ld_on, ld_gap, np.nan))
        np.copyto(state.lead_speed[:nd], np.where(ld_on, ld_speed[:nd], np.nan))
        np.copyto(state.left_edge[:nd], ledge)
        np.copyto(state.right_edge[:nd], redge)
        np.copyto(state.lead_d[:nd], np.where(ld_on, state.p_ld_d[:nd], 0.0))
        np.copyto(state.has_lead[:nd], ld_on)
        time_o = time_next.tolist()
        front_o = front.tolist()
        rear_o = rear.tolist()
        ledge_o = ledge.tolist()
        redge_o = redge.tolist()
        ld_gap_o = ld_gap.tolist()
        s_o = ph_s[:n_dense].tolist()
        d_o = ph_d[:n_dense].tolist()
        heading_o = ph_heading[:n_dense].tolist()
        speed_o = ph_speed[:n_dense].tolist()
        accel_o = ph_accel[:n_dense].tolist()
        steer_o = ph_steer[:n_dense].tolist()
        yaw_o = state.ph_yaw[:n_dense].tolist()
        for j in range(n_dense):
            slot = active[j]
            world = slot.world
            ego_state = world.ego.state
            ego_state.s = s_o[j]
            ego_state.d = d_o[j]
            ego_state.heading_error = heading_o[j]
            ego_state.speed = speed_o[j]
            ego_state.accel = accel_o[j]
            ego_state.steering_wheel_deg = steer_o[j]
            ego_state.yaw_rate = yaw_o[j]
            if slot.traffic_vec:
                lead = slot.lead_vehicle
                if lead is not None:
                    lead_state = lead.state
                    lead_state.s = ld_s_o[j]
                    lead_state.speed = ld_speed_o[j]
                    lead_state.accel = ld_accel_o[j]
                follower = slot.follower_vehicle
                if follower is not None:
                    follower_state = follower.state
                    follower_state.s = fl_s_o[j]
                    follower_state.speed = fl_speed_o[j]
                    follower_state.accel = fl_accel_o[j]
                world.time = time_o[j]
                world.step_count += 1
                # The column-computed observation: same fields, same
                # arithmetic as World.observe_into.  ctx.lead and
                # ctx.lead_d never change for a traffic-vec row (the
                # lead object is static and keeps its lane), and the
                # leadless fields stay None from run preparation.
                ctx = slot.ctx
                ctx.end_time = time_o[j]
                ctx.ego_s = s_o[j]
                ctx.ego_d = d_o[j]
                ctx.ego_speed = speed_o[j]
                ctx.ego_heading_error = heading_o[j]
                ctx.ego_steering_deg = steer_o[j]
                ctx.ego_front_s = front_o[j]
                ctx.ego_rear_s = rear_o[j]
                ctx.ego_left_edge = ledge_o[j]
                ctx.ego_right_edge = redge_o[j]
                if lead is not None:
                    ctx.lead_gap = ld_gap_o[j]
                    ctx.lead_speed = ld_speed_o[j]
            else:
                world.advance_traffic()
                world.observe_into(slot.ctx)
                state.gather_row(j, slot.ctx)
        np.copyto(ph_time[:n_dense], time_next)
        state.ph_fresh[:n_dense] = True

    def _advance_lead_columns(self, active: List[_Slot], n: int) -> None:
        """Vectorised maneuver-profile step for the scenario leads.

        Phase boundaries are rare: rows whose clock reached the mirrored
        next-phase start refresh their target/rate columns through the
        lead object's own ``_active_phase`` (keeping its phase index
        advancing monotonically, so demotion at any cycle boundary stays
        exact), then the speed update runs as masked ufuncs.  The
        comparison/clamp idioms (`np.where` on the accel sign,
        ``maximum``/``minimum`` against the target) are bit-identical to
        the scalar ``ScriptedVehicle.step`` branches for finite values;
        NaN targets make every mask False, which *is* the scalar
        ``target is None`` branch.
        """
        state = self.state
        ld_on = state.ld_on[:n]
        if not ld_on.any():
            return
        time = state.ph_time[:n]
        refresh = ld_on & (time >= state.ld_next_start[:n])
        if refresh.any():
            for j in np.flatnonzero(refresh):
                lead = active[j].lead_vehicle
                lead._active_phase(float(time[j]))
                state.load_lead_phase(j, lead)
        target = state.ld_target[:n]
        rate = state.ld_rate[:n]
        speed = state.ld_speed[:n]
        accel = state.ld_accel[:n]
        w = state.w1[:n]
        np.copyto(accel, np.where(speed > target, -rate, 0.0))
        np.copyto(accel, np.where(speed < target, rate, accel))
        np.multiply(accel, DT, out=w)
        np.add(speed, w, out=w)
        np.copyto(speed, np.where(w > 0.0, w, 0.0))
        np.copyto(speed, np.where(accel < 0.0, np.maximum(speed, target), speed))
        np.copyto(speed, np.where(accel > 0.0, np.minimum(speed, target), speed))
        np.multiply(speed, DT, out=w)
        np.add(state.ld_s[:n], w, out=state.ld_s[:n])

    def _advance_follower_columns(self, n: int) -> None:
        """Vectorised follower update with an exact perception-delay ring.

        The scalar follower appends ``(time, gap, ego_speed)`` every step
        and pops entries whose age reached the reaction delay, reacting
        to the last popped sample (or the oldest buffered one).  The ring
        replays that decision for all rows at once; ages compare the
        *stored* timestamps — never step-index arithmetic, which drifts
        from the accumulated ``world.time`` floats at the pop boundary.
        """
        state = self.state
        rows = np.flatnonzero(state.fl_on[:n])
        if rows.size == 0:
            return
        fh_t = state.fh_t
        fh_gap = state.fh_gap
        fh_v = state.fh_v
        time = state.ph_time[rows]
        ego_speed = state.ph_speed[rows]
        fl_s = state.fl_s
        fl_speed = state.fl_speed
        speed = fl_speed[rows]
        # Append this step's sample: ego rear bumper minus follower front.
        gap = (state.ph_s[rows] - state.p_ego_half_len[rows]) - (
            fl_s[rows] + state.p_fl_half_len[rows]
        )
        tail = state.fh_tail[rows] + 1
        slot_idx = (tail - 1) % FOLLOWER_RING
        fh_t[rows, slot_idx] = time
        fh_gap[rows, slot_idx] = gap
        fh_v[rows, slot_idx] = ego_speed
        state.fh_tail[rows] = tail
        # Advance heads past every sample older than the delay.
        head0 = state.fh_head[rows]
        head = head0.copy()
        delay = state.p_fl_delay[rows]
        live = np.arange(rows.size)
        while live.size:
            head_idx = head[live] % FOLLOWER_RING
            aged = (time[live] - fh_t[rows[live], head_idx]) >= delay[live]
            popped = live[aged]
            if popped.size == 0:
                break
            head[popped] += 1
            live = popped[head[popped] < tail[popped]]
        state.fh_head[rows] = head
        # React to the last popped sample, or the oldest still buffered.
        perceived = np.where(head > head0, head - 1, head) % FOLLOWER_RING
        perceived_gap = fh_gap[rows, perceived]
        perceived_v = fh_v[rows, perceived]
        desired_gap = np.maximum(state.p_fl_headway[rows] * speed, 2.0)
        accel = 0.6 * (perceived_gap - desired_gap) - 0.9 * (speed - perceived_v)
        np.minimum(accel, 1.5, out=accel)
        np.maximum(accel, -state.p_fl_decel[rows], out=accel)
        new_speed = speed + accel * DT
        new_speed = np.where(new_speed > 0.0, new_speed, 0.0)
        state.fl_accel[rows] = accel
        fl_speed[rows] = new_speed
        fl_s[rows] += new_speed * DT

    def _detect_column(self, active: List[_Slot]) -> None:
        """Cross-run vectorised detector predicates, scalar dispatch."""
        n_vec = self._n_vec
        if n_vec:
            self._detect_dense(active, n_vec)
        for slot in active[n_vec:]:
            slot.detect_run(slot.ctx)

    def _detect_dense(self, active: List[_Slot], n_dense: int) -> None:
        """Dense detect: vectorised predicates decide which rows need
        their scalar lane/collision/hazard detector dispatched.

        The predicates are exact supersets of the scalar fire conditions
        (proved per-detector in the comments below), so a row that is not
        dispatched would have been a no-op scalar call: no new events, no
        latch changes, ``ctx.collision`` None / ``ctx.new_hazards`` empty
        by the ``det_had_*`` invariants.
        """
        state = self.state
        t = state.time[:n_dense]
        d = state.ego_d[:n_dense]
        ego_speed = state.ego_speed[:n_dense]
        gap = state.lead_gap[:n_dense]
        has_lead = state.has_lead[:n_dense]
        left_edge = state.left_edge[:n_dense]
        right_edge = state.right_edge[:n_dense]

        # Lane: dispatch on any latch edge (rising OR falling invasion
        # edge, or a first out-of-lane crossing).  No edge => check_values
        # would only re-assign identical latch values.
        left_inv = left_edge > state.p_left_lane_line[:n_dense]
        right_inv = right_edge < state.p_right_lane_line[:n_dense]
        centre_out = (d > state.p_lane_left_limit[:n_dense]) | (
            d < state.p_lane_right_limit[:n_dense]
        )
        lane_need = (
            (left_inv != state.det_inv_left[:n_dense])
            | (right_inv != state.det_inv_right[:n_dense])
            | (centre_out & ~state.det_out[:n_dense])
        )
        for j in np.flatnonzero(lane_need):
            slot = active[j]
            ctx = slot.ctx
            lane = slot.lane_monitor
            lane.check_values(ctx.end_time, ctx.ego_left_edge, ctx.ego_right_edge, ctx.ego_d)
            ctx.lane_invasions = len(lane.report.invasion_events)
            state.det_inv_left[j] = lane._invading_left
            state.det_inv_right[j] = lane._invading_right
            state.det_out[j] = lane.report.out_of_lane

        # Collision: the A1-lead test fires only with a non-positive gap;
        # the roadside tests are exact; runs with scripted traffic or a
        # follower (det_coll_scalar) always dispatch; det_had_coll keeps
        # dispatching while a collision is live so ctx.collision clears
        # the cycle the overlap ends (NaN gaps compare False, warning-free).
        coll_need = (
            state.det_coll_scalar[:n_dense]
            | state.det_had_coll[:n_dense]
            | (has_lead & (gap <= 0.0))
            | (right_edge <= state.p_right_guardrail[:n_dense])
            | (left_edge >= state.p_left_road_edge[:n_dense])
        )
        for j in np.flatnonzero(coll_need):
            slot = active[j]
            ctx = slot.ctx
            ctx.collision = slot.collision_detector.check_context(ctx)
            state.det_had_coll[j] = ctx.collision is not None

        # Hazards: the fire masks replicate HazardMonitor._evaluate's
        # conditions exactly (including the pending latches det_h1..h3),
        # so dispatch happens iff check_context would return new events.
        h1_fire = (
            state.det_h1[:n_dense]
            & has_lead
            & (np.abs(state.lead_d[:n_dense] - d) < 2.0)
            & (
                gap
                < np.maximum(
                    state.p_h1_min_gap[:n_dense],
                    state.p_h1_headway[:n_dense] * ego_speed,
                )
            )
        )
        h2_fire = (
            state.det_h2[:n_dense]
            & (t >= state.p_h2_warmup[:n_dense])
            & (~has_lead | (gap > state.p_h2_clear[:n_dense]))
            & (ego_speed < state.p_h2_floor[:n_dense])
        )
        h3_fire = state.det_h3[:n_dense] & (
            (d > state.p_h3_left_limit[:n_dense]) | (d < state.p_h3_right_limit[:n_dense])
        )
        fire = h1_fire | h2_fire | h3_fire
        for j in np.flatnonzero(fire):
            slot = active[j]
            ctx = slot.ctx
            ctx.new_hazards = slot.hazard_monitor.check_context(ctx)
            events = slot.hazard_monitor.events
            state.det_h1[j] = _H1 not in events
            state.det_h2[j] = _H2 not in events
            state.det_h3[j] = _H3 not in events
            state.det_had_haz[j] = bool(ctx.new_hazards)
        # Rows that reported hazards last cycle but fire nothing now get
        # the scalar path's fresh empty list (shared, read-only).
        clear = state.det_had_haz[:n_dense] & ~fire
        for j in np.flatnonzero(clear):
            active[j].ctx.new_hazards = _NO_NEW_HAZARDS
            state.det_had_haz[j] = False

    def _record_column(self, active: List[_Slot]) -> None:
        for slot in active:
            slot.record_run(slot.ctx)


def run_batched(
    tasks: Sequence[BatchTask],
    batch_size: int = DEFAULT_BATCH_SIZE,
    progress: Optional[ProgressCallback] = None,
    telemetry: Optional["Telemetry"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
) -> List[RunResult]:
    """Run ``(SimulationConfig, strategy)`` tasks through a lockstep batch."""
    return BatchRunner(
        batch_size=batch_size, telemetry=telemetry, recorder=recorder
    ).run_tasks(tasks, progress=progress)
