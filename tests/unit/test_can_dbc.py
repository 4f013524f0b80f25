"""Tests for DBC signal packing and the Honda message database."""

import pytest

from repro.can.checksum import verify_checksum
from repro.can.dbc import DBC, MessageDef, Signal
from repro.can.frame import CANFrame
from repro.can.honda import ADDR, HONDA_DBC


class TestSignal:
    def test_unsigned_round_trip(self):
        signal = Signal("S", 0, 8, factor=0.5)
        assert signal.to_physical(signal.to_raw(10.0)) == pytest.approx(10.0)

    def test_signed_negative_round_trip(self):
        signal = Signal("S", 0, 16, factor=0.01, is_signed=True)
        assert signal.to_physical(signal.to_raw(-3.21)) == pytest.approx(-3.21, abs=0.01)

    def test_unsigned_clamps_negative_to_zero(self):
        signal = Signal("S", 0, 8)
        assert signal.to_raw(-5.0) == 0

    def test_saturation_at_field_width(self):
        signal = Signal("S", 0, 8)
        assert signal.to_raw(1000.0) == 255

    def test_signed_saturation(self):
        signal = Signal("S", 0, 8, is_signed=True)
        assert signal.to_physical(signal.to_raw(1000.0)) == 127
        assert signal.to_physical(signal.to_raw(-1000.0)) == -128

    def test_min_max_clamp(self):
        signal = Signal("S", 0, 16, factor=0.1, minimum=-5.0, maximum=5.0)
        assert signal.to_physical(signal.to_raw(100.0)) == pytest.approx(5.0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Signal("S", 0, 0)
        with pytest.raises(ValueError):
            Signal("S", 0, 65)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            Signal("S", 0, 8, factor=0.0)


class TestMessageDef:
    def test_signal_must_fit_in_message(self):
        with pytest.raises(ValueError):
            MessageDef("M", 0x100, 1, {"S": Signal("S", 4, 8)})

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            MessageDef("M", 0x100, 9)

    def test_overlapping_signals_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            MessageDef("M", 0x100, 2, {"A": Signal("A", 0, 8), "B": Signal("B", 7, 4)})


class TestDBCEncodeDecode:
    def test_steering_round_trip(self):
        frame = HONDA_DBC.encode("STEERING_CONTROL", {"STEER_ANGLE_CMD": -12.34}, counter=1)
        decoded = HONDA_DBC.decode(frame)
        assert decoded["STEER_ANGLE_CMD"] == pytest.approx(-12.34, abs=0.01)
        assert decoded["COUNTER"] == 1

    def test_acc_round_trip(self):
        frame = HONDA_DBC.encode(
            "ACC_CONTROL", {"ACCEL_COMMAND": 1.5, "BRAKE_COMMAND": 0.0, "ACC_ON": 1.0}
        )
        decoded = HONDA_DBC.decode(frame)
        assert decoded["ACCEL_COMMAND"] == pytest.approx(1.5, abs=0.005)
        assert decoded["ACC_ON"] == 1.0

    def test_encoded_frame_has_valid_checksum(self):
        frame = HONDA_DBC.encode("STEERING_CONTROL", {"STEER_ANGLE_CMD": 3.0})
        assert verify_checksum(frame.address, frame.data)

    def test_decode_rejects_bad_checksum(self):
        frame = HONDA_DBC.encode("STEERING_CONTROL", {"STEER_ANGLE_CMD": 3.0})
        tampered = frame.with_data(bytes([frame.data[0] ^ 0xFF]) + frame.data[1:])
        with pytest.raises(ValueError):
            HONDA_DBC.decode(tampered)
        # but decoding without the check succeeds
        HONDA_DBC.decode(tampered, check=False)

    def test_unknown_signal_rejected(self):
        with pytest.raises(KeyError):
            HONDA_DBC.encode("STEERING_CONTROL", {"NOT_A_SIGNAL": 1.0})

    def test_unknown_signal_rejected_before_any_packing(self):
        """Unknown keys are reported up front — with the offending names in
        the message — before any signal value is even read."""
        reads = []

        class RecordingDict(dict):
            def __getitem__(self, key):
                reads.append(key)
                return dict.__getitem__(self, key)

        values = RecordingDict(
            {"STEER_ANGLE_CMD": 1.0, "BOGUS_A": 2.0, "BOGUS_B": 3.0}
        )
        with pytest.raises(KeyError) as excinfo:
            HONDA_DBC.encode("STEERING_CONTROL", values)
        assert "unknown signals for message 'STEERING_CONTROL'" in str(excinfo.value)
        assert "BOGUS_A" in str(excinfo.value) and "BOGUS_B" in str(excinfo.value)
        assert reads == []

    def test_unknown_message_rejected(self):
        with pytest.raises(KeyError):
            HONDA_DBC.encode("NOT_A_MESSAGE", {})
        with pytest.raises(KeyError):
            HONDA_DBC.message_by_address(0x7FF)

    def test_wrong_length_frame_rejected(self):
        with pytest.raises(ValueError):
            HONDA_DBC.decode(CANFrame(ADDR["STEERING_CONTROL"], b"\x00\x00"))

    def test_duplicate_address_rejected(self):
        msg = MessageDef("A", 0x100, 2, {})
        msg2 = MessageDef("B", 0x100, 2, {})
        with pytest.raises(ValueError):
            DBC("dup", [msg, msg2])


class TestHondaDatabase:
    def test_steering_control_address_matches_paper(self):
        # Fig. 4 of the paper: the steering output CAN message is 0xE4.
        assert ADDR["STEERING_CONTROL"] == 0xE4

    def test_all_messages_resolvable_by_address(self):
        for name, address in ADDR.items():
            assert HONDA_DBC.message_by_address(address).name == name

    def test_powertrain_speed_round_trip(self):
        frame = HONDA_DBC.encode("POWERTRAIN_DATA", {"XMISSION_SPEED": 26.82})
        assert HONDA_DBC.decode(frame)["XMISSION_SPEED"] == pytest.approx(26.82, abs=0.01)
