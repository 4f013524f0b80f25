"""Equivalence of the compiled codec plans against the reference codec.

The compiled :class:`~repro.can.dbc.MessagePlan` replaces the per-call
bit-twiddling of ``_pack_field``/``_unpack_field`` with precompiled
constants, a single int conversion and a decode memo.  These tests pin
the contract that made that optimisation safe: for every message kind the
plans — the dict-keyed ``encode``/``decode`` and the positional packers
and readers alike — must produce byte-identical frames and identical
physical values to the reference implementation.
"""

import sys
import threading

import numpy as np
import pytest

from repro.can.checksum import apply_checksum, honda_checksum, verify_checksum
from repro.can.dbc import DBC, MessageDef, Signal, _pack_field, _unpack_field
from repro.can.frame import CANFrame
from repro.can.honda import (
    ACC_CONTROL_LAYOUT,
    HONDA_DBC,
    POWERTRAIN_LAYOUT,
    STEERING_CONTROL_LAYOUT,
    STEERING_SENSORS_LAYOUT,
)


def reference_encode(dbc: DBC, name: str, values, counter: int = 0) -> bytes:
    """The seed implementation of DBC.encode (loop of _pack_field calls)."""
    msg = dbc.message_by_name(name)
    data = bytearray(msg.length)
    for sig_name, sig in msg.signals.items():
        if sig_name == "CHECKSUM":
            continue
        if sig_name == "COUNTER":
            _pack_field(data, sig.msb_offset, sig.size, counter & ((1 << sig.size) - 1))
            continue
        if sig_name in values:
            _pack_field(data, sig.msb_offset, sig.size, sig.to_raw(values[sig_name]))
    if msg.checksummed:
        apply_checksum(msg.address, data)
    return bytes(data)


def reference_decode(dbc: DBC, frame: CANFrame) -> dict:
    """The seed implementation of DBC.decode (loop of _unpack_field calls)."""
    msg = dbc.message_by_address(frame.address)
    return {
        sig_name: sig.to_physical(_unpack_field(frame.data, sig.msb_offset, sig.size))
        for sig_name, sig in msg.signals.items()
    }


#: A DBC exercising every signal shape: signed, unsigned, clamped,
#: checksummed and checksum-free, sub-byte and multi-byte fields.
MIXED_DBC = DBC(
    "mixed",
    [
        MessageDef(
            "SIGNED_CHECKSUMMED",
            0x101,
            6,
            {
                "S16": Signal("S16", 0, 16, factor=0.01, is_signed=True),
                "S12": Signal("S12", 16, 12, factor=1.0 / 2047.0, is_signed=True),
                "FLAG": Signal("FLAG", 28, 1),
                "COUNTER": Signal("COUNTER", 32, 2),
                "CHECKSUM": Signal("CHECKSUM", 44, 4),
            },
        ),
        MessageDef(
            "CLAMPED_PLAIN",
            0x102,
            4,
            {
                "CLAMPED": Signal("CLAMPED", 0, 16, factor=0.1, minimum=-5.0, maximum=5.0),
                "U7": Signal("U7", 16, 7),
                "S9": Signal("S9", 23, 9, factor=0.5, offset=-10.0, is_signed=True),
            },
            checksummed=False,
        ),
    ],
)


def _encode(dbc: DBC, message: str, values, counter: int = 0) -> bytes:
    return dbc.encode(message, values, counter=counter).data


def _pack(dbc: DBC, message: str, values, counter: int = 0, fold: bool = False) -> bytes:
    """``values`` through a compiled packer, positionally in reverse DBC
    order; with ``fold`` every other signal is a folded constant instead."""
    names = list(values)[::-1]
    constants = {name: values[name] for name in names[1::2]} if fold else {}
    signals = [name for name in names if name not in constants]
    pack = dbc.plan_by_name(message).packer(signals, constants)
    return pack(counter, *(values[name] for name in signals))


#: Every way to turn physical values into payload bytes.
ENCODERS = {
    "encode": _encode,
    "packer": _pack,
    "packer-folded": lambda *args: _pack(*args, fold=True),
}

def _read(dbc: DBC, frame: CANFrame) -> dict:
    """Every signal of ``frame`` through a compiled reader."""
    plan = dbc.plan_by_address(frame.address)
    return dict(zip(plan.fields, plan.reader(tuple(plan.fields))(frame)))


#: Every way to turn a checked frame into physical values.
DECODERS = {"decode": lambda dbc, frame: dbc.decode(frame), "reader": _read}


def _random_values(msg: MessageDef, rng: np.random.Generator) -> dict:
    values = {}
    for name, sig in msg.signals.items():
        if name in ("COUNTER", "CHECKSUM"):
            continue
        span = (1 << sig.size) * abs(sig.factor)
        values[name] = float(rng.uniform(-1.5 * span, 1.5 * span)) + sig.offset
    return values


@pytest.mark.parametrize("encoder", ENCODERS.values(), ids=ENCODERS.keys())
class TestEncodeEquivalence:
    @pytest.mark.parametrize("dbc", [HONDA_DBC, MIXED_DBC], ids=["honda", "mixed"])
    def test_random_values_byte_identical(self, dbc, encoder):
        rng = np.random.default_rng(1234)
        for msg in (dbc.message_by_address(addr) for addr in dbc.addresses()):
            for trial in range(200):
                values = _random_values(msg, rng)
                counter = trial  # wraps past every COUNTER field's width
                compiled = encoder(dbc, msg.name, values, counter)
                reference = reference_encode(dbc, msg.name, values, counter=counter)
                assert compiled == reference, (msg.name, values)

    def test_partial_value_dicts(self, encoder):
        for values in ({}, {"STEER_ANGLE_CMD": -12.3}, {"STEER_TORQUE": 0.4}):
            compiled = encoder(HONDA_DBC, "STEERING_CONTROL", values, 2)
            assert compiled == reference_encode(
                HONDA_DBC, "STEERING_CONTROL", values, counter=2
            )

    @pytest.mark.parametrize("name", ["SIGNED_CHECKSUMMED", "CLAMPED_PLAIN"])
    def test_saturating_values_byte_identical(self, name, encoder):
        # Saturating, at and past the CLAMPED min/max, signed wrap, and both zeros.
        signals = [
            sig for sig in MIXED_DBC.message_by_name(name).signals
            if sig not in ("COUNTER", "CHECKSUM")
        ]
        for extreme in (-1e9, -5.01, -5.0, -1.0, -0.0, 0.0, 1.0, 5.0, 5.01, 1e9):
            values = dict.fromkeys(signals, extreme)
            compiled = encoder(MIXED_DBC, name, values, 0)
            assert compiled == reference_encode(MIXED_DBC, name, values), extreme

    def test_encoded_checksum_still_valid(self, encoder):
        data = encoder(MIXED_DBC, "SIGNED_CHECKSUMMED", {"S16": -3.33, "S12": 0.25}, 0)
        assert verify_checksum(MIXED_DBC.message_by_name("SIGNED_CHECKSUMMED").address, data)


class TestDecodeEquivalence:
    @pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS.keys())
    @pytest.mark.parametrize("dbc", [HONDA_DBC, MIXED_DBC], ids=["honda", "mixed"])
    def test_random_payload_round_trip(self, dbc, decoder):
        rng = np.random.default_rng(99)
        for msg in (dbc.message_by_address(addr) for addr in dbc.addresses()):
            for _ in range(200):
                payload = bytearray(rng.integers(0, 256, size=msg.length, dtype=np.uint8))
                if msg.checksummed:
                    apply_checksum(msg.address, payload)
                frame = CANFrame(msg.address, bytes(payload))
                assert decoder(dbc, frame) == reference_decode(dbc, frame)

    def test_subset_decode_matches_full_decode(self):
        frame = HONDA_DBC.encode("ACC_CONTROL", {"ACCEL_COMMAND": 1.25, "BRAKE_COMMAND": 0.5})
        full = HONDA_DBC.decode(frame)
        subset = HONDA_DBC.decode(frame, signals=("ACCEL_COMMAND", "BRAKE_COMMAND"))
        assert subset == {
            "ACCEL_COMMAND": full["ACCEL_COMMAND"],
            "BRAKE_COMMAND": full["BRAKE_COMMAND"],
        }

    def test_decode_signal_matches_full_decode(self):
        frame = HONDA_DBC.encode("STEERING_CONTROL", {"STEER_ANGLE_CMD": -7.77}, counter=3)
        assert HONDA_DBC.decode_signal(frame, "STEER_ANGLE_CMD") == HONDA_DBC.decode(frame)[
            "STEER_ANGLE_CMD"
        ]

    def test_subset_decode_unknown_signal_raises(self):
        frame = HONDA_DBC.encode("STEERING_CONTROL", {})
        with pytest.raises(KeyError, match="no signal named"):
            HONDA_DBC.decode(frame, signals=("NOPE",))
        with pytest.raises(KeyError, match="no signal named"):
            HONDA_DBC.decode_signal(frame, "NOPE")

    def test_decode_returns_fresh_dict(self):
        """Callers mutate decode results (can_tamper does); the memo must
        never leak a shared dict."""
        frame = HONDA_DBC.encode("ACC_CONTROL", {"ACCEL_COMMAND": 1.0})
        first = HONDA_DBC.decode(frame)
        first["ACCEL_COMMAND"] = 999.0
        assert HONDA_DBC.decode(frame)["ACCEL_COMMAND"] != 999.0


@pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS.keys())
class TestDecodeMemo:
    def test_memo_hit_does_not_skip_checksum_of_new_data(self, decoder):
        good = HONDA_DBC.encode("STEERING_CONTROL", {"STEER_ANGLE_CMD": 3.0})
        corrupted = good.with_data(bytes([good.data[0] ^ 0xFF]) + good.data[1:])
        with pytest.raises(ValueError, match="checksum mismatch"):
            decoder(HONDA_DBC, corrupted)
        # And the good frame still decodes after the failed attempt.
        assert decoder(HONDA_DBC, good)["STEER_ANGLE_CMD"] == pytest.approx(3.0, abs=0.01)

    def test_check_after_uncheck_verifies(self, decoder):
        """check=False then a checked read of the same payload must verify."""
        good = HONDA_DBC.encode("STEERING_CONTROL", {"STEER_ANGLE_CMD": 3.0})
        bad = good.with_data(good.data[:-1] + bytes([good.data[-1] ^ 0x01]))
        assert HONDA_DBC.decode(bad, check=False)  # tolerated
        with pytest.raises(ValueError, match="checksum mismatch"):
            decoder(HONDA_DBC, bad)

    def test_equal_payload_different_frame_object_hits_memo(self, decoder):
        frame_a = HONDA_DBC.encode("ACC_CONTROL", {"ACCEL_COMMAND": 1.0})
        frame_b = CANFrame(frame_a.address, bytes(frame_a.data))
        assert decoder(HONDA_DBC, frame_a) == decoder(HONDA_DBC, frame_b)

    def test_wrong_length_frame_rejected(self, decoder):
        frame = CANFrame(HONDA_DBC.message_by_name("ACC_CONTROL").address, b"\x00\x00")
        with pytest.raises(ValueError, match="expects 8 bytes"):
            decoder(HONDA_DBC, frame)


#: The per-step frame layouts the control cycle packs and reads through.
LAYOUTS = {
    "powertrain": POWERTRAIN_LAYOUT,
    "steering-sensors": STEERING_SENSORS_LAYOUT,
    "steering-control": STEERING_CONTROL_LAYOUT,
    "acc-control": ACC_CONTROL_LAYOUT,
}


class TestFrameLayouts:
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_pack_and_read_match_encode_and_decode(self, layout):
        rng = np.random.default_rng(5)
        msg = layout.plan.message
        for trial in range(200):
            values = _random_values(msg, rng)
            for name in layout.integral:
                values[name] = float(trial & 1)
            args = [values[name] for name in layout.signals]
            data = layout.pack(trial, *args)
            expected = {**dict(zip(layout.signals, args)), **layout.constants}
            assert data == reference_encode(HONDA_DBC, msg.name, expected, counter=trial)
            frame = CANFrame(msg.address, data)
            decoded = HONDA_DBC.decode(frame)
            assert layout.read(frame) == tuple(decoded[name] for name in layout.reads)

    def test_unknown_and_reserved_signals_fail_at_compile_time(self):
        plan = HONDA_DBC.plan_by_name("STEERING_CONTROL")
        with pytest.raises(KeyError, match="unknown signals"):
            plan.packer(("NOPE",))
        with pytest.raises(KeyError, match="unknown signals"):
            plan.packer(("STEER_ANGLE_CMD",), constants={"NOPE": 1.0})
        with pytest.raises(KeyError, match="unknown signals"):
            plan.reader(("NOPE",))
        for reserved in ("COUNTER", "CHECKSUM"):
            with pytest.raises(ValueError, match="implicit"):
                plan.packer((reserved,))
            with pytest.raises(ValueError, match="implicit"):
                plan.packer((), constants={reserved: 1.0})
        with pytest.raises(ValueError, match="listed twice"):
            plan.packer(("STEER_ANGLE_CMD",), constants={"STEER_ANGLE_CMD": 1.0})


@pytest.mark.parametrize("round_trip", ["encode-decode", "pack-read"])
def test_threads_sharing_a_plan_read_their_own_values(round_trip):
    """Plans keep no per-call state, so threads sharing one cannot read
    each other's values (the campaign service runs in-process chunks on
    executor threads).  A short switch interval forces interleaving."""
    plan = HONDA_DBC.plan_by_name("POWERTRAIN_DATA")
    address = plan.message.address
    errors: list = []

    def worker(k: int) -> None:
        speed = 10.0 * (k + 1) + 0.02 * k  # distinct per thread, on the 0.01 grid
        for i in range(20000):
            if round_trip == "encode-decode":
                data = plan.encode({"XMISSION_SPEED": speed}, counter=i)
                got = plan.decode_signal(CANFrame(address, data), "XMISSION_SPEED")
            else:
                data = POWERTRAIN_LAYOUT.pack(i, speed, 0.0, 0.0, 0.0)
                got = POWERTRAIN_LAYOUT.read(CANFrame(address, data))[0]
            if abs(got - speed) > 0.005:
                errors.append((k, speed, got))
                return

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestChecksumFastPath:
    def test_table_checksum_matches_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            address = int(rng.integers(0, 0x800))
            data = bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))
            checksum = 0
            remainder = address
            while remainder > 0:
                checksum += remainder & 0xF
                remainder >>= 4
            for i, byte in enumerate(data):
                if i == len(data) - 1:
                    checksum += byte >> 4
                else:
                    checksum += (byte >> 4) + (byte & 0xF)
            assert honda_checksum(address, data) == (8 - checksum) & 0xF
