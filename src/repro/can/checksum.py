"""Checksums and rolling counters used on Honda CAN messages.

Honda frames carry a 4-bit rolling counter and a 4-bit checksum in the
last byte of the payload.  The paper notes that after corrupting a control
command the attacker "updates the checksum ... so the integrity of the
corrupted CAN message is maintained"; :func:`honda_checksum` is that
computation.
"""

from typing import Union

# Per-byte nibble sums ((b >> 4) + (b & 0xF)), so the payload loop is a
# single table-driven ``sum`` instead of per-byte shifting.  The compiled
# codec plans fold the same sum from the packed payload int instead
# (equivalence is pinned by the codec round-trip tests).
NIBBLE_SUMS = tuple((b >> 4) + (b & 0xF) for b in range(256))


def address_nibble_sum(address: int) -> int:
    """Sum of the arbitration-id nibbles (the per-message constant part
    of :func:`honda_checksum`)."""
    total = 0
    while address > 0:
        total += address & 0xF
        address >>= 4
    return total


def honda_checksum(address: int, data: Union[bytes, bytearray]) -> int:
    """Compute the Honda 4-bit checksum for a frame.

    The checksum is computed over the arbitration id nibbles and every
    payload nibble except the checksum nibble itself (the low nibble of
    the final byte), then negated modulo 16.

    Args:
        address: CAN arbitration id.
        data: Full payload including the checksum byte (its low nibble is
            ignored).

    Returns:
        The 4-bit checksum value (0..15).
    """
    if not data:
        raise ValueError("cannot checksum an empty payload")
    # Sum every payload nibble, then drop the checksum nibble itself (the
    # low nibble of the final byte).
    checksum = address_nibble_sum(address)
    checksum += sum(map(NIBBLE_SUMS.__getitem__, data)) - (data[-1] & 0xF)
    return (8 - checksum) & 0xF


def honda_counter(previous: int) -> int:
    """Return the next value of the 2-bit rolling counter after ``previous``."""
    return (previous + 1) & 0x3


def apply_checksum(address: int, data: bytearray) -> bytearray:
    """Write the correct checksum into the low nibble of the final byte."""
    if not data:
        raise ValueError("cannot checksum an empty payload")
    data[-1] = (data[-1] & 0xF0) | honda_checksum(address, data)
    return data


def verify_checksum(address: int, data: Union[bytes, bytearray]) -> bool:
    """True if the payload's embedded checksum matches the computed one."""
    if not data:
        return False
    return (data[-1] & 0xF) == honda_checksum(address, data)
