"""Honda-style CAN message database used by the simulated vehicle.

The paper's running example corrupts the steering output CAN message with
arbitration id ``0xE4`` (Fig. 4) and relies on the opendbc definitions to
know the payload layout.  The definitions below model the subset of the
Honda powertrain bus needed by the ADAS and the attack:

* ``STEERING_CONTROL`` (0xE4)  — commanded steering angle, ADAS → EPS.
* ``ACC_CONTROL``      (0x1FA) — commanded acceleration / brake, ADAS → PCM.
* ``POWERTRAIN_DATA``  (0x17C) — measured speed and pedal state, car → ADAS.
* ``STEERING_SENSORS`` (0x156) — measured steering angle/rate, car → ADAS.

The exact bit positions are a simplification of the real DBC but preserve
the properties the attack depends on: a scaled physical signal, a rolling
counter, and a 4-bit checksum that must be recomputed after tampering.
"""

from repro.can.dbc import DBC, FrameLayout, MessageDef, Signal

# Arbitration ids (powertrain bus 0).
ADDR = {
    "STEERING_CONTROL": 0xE4,
    "ACC_CONTROL": 0x1FA,
    "POWERTRAIN_DATA": 0x17C,
    "STEERING_SENSORS": 0x156,
}

STEERING_CONTROL = MessageDef(
    name="STEERING_CONTROL",
    address=ADDR["STEERING_CONTROL"],
    length=5,
    signals={
        # Commanded steering wheel angle, degrees (+ = left), 0.01 deg/bit.
        "STEER_ANGLE_CMD": Signal("STEER_ANGLE_CMD", 0, 16, factor=0.01, is_signed=True),
        # Normalised steering torque request in [-1, 1], 1/2047 per bit.
        "STEER_TORQUE": Signal("STEER_TORQUE", 16, 12, factor=1.0 / 2047.0, is_signed=True),
        "STEER_REQUEST": Signal("STEER_REQUEST", 28, 1),
        "COUNTER": Signal("COUNTER", 32, 2),
        "CHECKSUM": Signal("CHECKSUM", 36, 4),
    },
)

ACC_CONTROL = MessageDef(
    name="ACC_CONTROL",
    address=ADDR["ACC_CONTROL"],
    length=8,
    signals={
        # Commanded longitudinal acceleration, m/s^2, 0.005 per bit.
        "ACCEL_COMMAND": Signal("ACCEL_COMMAND", 0, 16, factor=0.005, is_signed=True),
        # Commanded braking deceleration magnitude, m/s^2, 0.005 per bit.
        "BRAKE_COMMAND": Signal("BRAKE_COMMAND", 16, 16, factor=0.005),
        "BRAKE_REQUEST": Signal("BRAKE_REQUEST", 32, 1),
        "ACC_ON": Signal("ACC_ON", 33, 1),
        "COUNTER": Signal("COUNTER", 56, 2),
        "CHECKSUM": Signal("CHECKSUM", 60, 4),
    },
)

POWERTRAIN_DATA = MessageDef(
    name="POWERTRAIN_DATA",
    address=ADDR["POWERTRAIN_DATA"],
    length=8,
    signals={
        # Measured vehicle speed, m/s, 0.01 per bit.
        "XMISSION_SPEED": Signal("XMISSION_SPEED", 0, 16, factor=0.01),
        # Measured longitudinal acceleration, m/s^2, 0.01 per bit.
        "ACCEL_MEASURED": Signal("ACCEL_MEASURED", 16, 16, factor=0.01, is_signed=True),
        "PEDAL_GAS": Signal("PEDAL_GAS", 32, 8, factor=1.0 / 255.0),
        "BRAKE_PRESSED": Signal("BRAKE_PRESSED", 40, 1),
        "GAS_PRESSED": Signal("GAS_PRESSED", 41, 1),
        "COUNTER": Signal("COUNTER", 56, 2),
        "CHECKSUM": Signal("CHECKSUM", 60, 4),
    },
)

STEERING_SENSORS = MessageDef(
    name="STEERING_SENSORS",
    address=ADDR["STEERING_SENSORS"],
    length=6,
    signals={
        # Measured steering wheel angle, degrees, 0.1 per bit.
        "STEER_ANGLE": Signal("STEER_ANGLE", 0, 16, factor=0.1, is_signed=True),
        # Measured steering wheel rate, deg/s, 1 per bit.
        "STEER_ANGLE_RATE": Signal("STEER_ANGLE_RATE", 16, 16, factor=1.0, is_signed=True),
        "COUNTER": Signal("COUNTER", 40, 2),
        "CHECKSUM": Signal("CHECKSUM", 44, 4),
    },
)

HONDA_DBC = DBC(
    "honda_civic_touring_2016_can_generated",
    [STEERING_CONTROL, ACC_CONTROL, POWERTRAIN_DATA, STEERING_SENSORS],
)

# The four frames of every 10 ms control cycle, declared once: the
# signals each sender varies per step (in ``pack`` argument order), the
# ones it holds constant, and the ones its receiver reads back (in
# ``read`` tuple order).  The scalar stages pack and read through these
# layouts; the lockstep batch executor builds its vectorised codecs from
# them.  ``integral`` marks the 0/1 request bits.

#: Car -> ADAS: measured speed, acceleration and pedal state.
POWERTRAIN_LAYOUT = FrameLayout(
    HONDA_DBC.plan_by_name("POWERTRAIN_DATA"),
    ("XMISSION_SPEED", "ACCEL_MEASURED", "PEDAL_GAS", "BRAKE_PRESSED"),
    constants={"GAS_PRESSED": 0.0},
    integral=("BRAKE_PRESSED",),
    reads=("XMISSION_SPEED", "ACCEL_MEASURED"),
)

#: Car -> ADAS: measured steering wheel angle.
STEERING_SENSORS_LAYOUT = FrameLayout(
    HONDA_DBC.plan_by_name("STEERING_SENSORS"),
    ("STEER_ANGLE",),
    constants={"STEER_ANGLE_RATE": 0.0},
    reads=("STEER_ANGLE",),
)

#: ADAS -> EPS: commanded steering angle and torque.
STEERING_CONTROL_LAYOUT = FrameLayout(
    HONDA_DBC.plan_by_name("STEERING_CONTROL"),
    ("STEER_ANGLE_CMD", "STEER_TORQUE"),
    constants={"STEER_REQUEST": 1.0},
    reads=("STEER_ANGLE_CMD",),
)

#: ADAS -> PCM: commanded acceleration and braking.
ACC_CONTROL_LAYOUT = FrameLayout(
    HONDA_DBC.plan_by_name("ACC_CONTROL"),
    ("ACCEL_COMMAND", "BRAKE_COMMAND", "BRAKE_REQUEST"),
    constants={"ACC_ON": 1.0},
    integral=("BRAKE_REQUEST",),
    reads=("ACCEL_COMMAND", "BRAKE_COMMAND"),
)
