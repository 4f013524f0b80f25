"""Vectorised CAN encoding across a lockstep batch of simulations.

The kernel batch executor (:mod:`repro.kernel.batch`) steps many
independent runs through each pipeline stage together, which turns the
four frames every run encodes per step into one structure-of-arrays
computation per message: clamp, scale, round, clamp to the field range,
pack, checksum — each as a single numpy operation over the whole batch
instead of a Python-level pass per run.

Bit-for-bit equivalence with the scalar encoder is a hard requirement
(the golden-run suite replays through the batch executor), so every
operation here mirrors the exact arithmetic of the compiled scalar
encoder in :mod:`repro.can.dbc`:

* the physical min/max clamp uses ``np.where(v > minimum, v, minimum)``,
  matching the scalar ``if not v > minimum`` branch for every float;
* ``offset``/``factor`` are applied with the same conditional structure
  (skipped when they are the identity), so the float sequence is
  identical;
* rounding uses ``np.rint`` (round-half-to-even), identical to Python's
  ``round`` on binary64 values;
* the field-range clamp happens on the rounded float against the exact
  integer bounds (all exactly representable), so the int64 cast is exact,
  and the signed-negative wrap is a two's-complement ``& mask`` — the
  same bits the scalar ``raw += 1 << size`` produces;
* the checksum reproduces :func:`repro.can.checksum.honda_checksum` by
  nibble-folding the packed payload int (sum of all nibbles minus the
  checksum nibble, negated mod 16).

Everything runs on preallocated scratch arrays with ``out=`` ufunc calls,
so one encode pass costs a fixed few dozen numpy dispatches regardless of
batch width (the four encodes of a cycle took 211–249 µs at 4–64 rows on
a 2-vCPU Intel Xeon VM).  Per-run scalar encodes are cheaper in narrow
batches, so the lockstep executor runs the codec only inside its dense
tier, over the dense prefix of a cycle with at least
``DENSE_MIN_ACTIVE`` dense rows; that constant's comment gives the
crossover ``python benchmarks/profile_run.py --crossover`` measures.

The codec also keeps the per-signal **raw** integer arrays of the most
recent batch, so the lockstep executor can recover the physical values a
decoder would produce (``raw * factor + offset``, the exact
:meth:`_FieldPlan.to_physical` arithmetic) without touching the CAN bus
again — the encode→send→decode round trip of one control cycle collapses
into an array read when the bus is known to be transformer-free.

NaN inputs are out of scope: the scalar encoder raises on them
(``int(round(nan))``), the vectorised path would pack garbage — neither
occurs with the finite commands the control stack produces.

Equivalence against the scalar plans is pinned by
``tests/unit/test_batch_codec.py``.
"""

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.can.checksum import address_nibble_sum
from repro.can.dbc import MessagePlan

#: Mask selecting the low nibble of every byte of a packed uint64 payload.
_NIBBLE_MASK = 0x0F0F0F0F0F0F0F0F

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


class _BatchFieldPlan:
    """Per-signal constants plus the retained raw array of the last batch."""

    __slots__ = (
        "name",
        "shift",
        "mask",
        "factor",
        "offset",
        "minimum",
        "maximum",
        "clamp_min",
        "clamp_max",
        "raw",
        "physical_out",
    )

    def __init__(self, field_plan, capacity: int):
        self.name = field_plan.name
        self.shift = field_plan.shift
        self.mask = field_plan.mask
        self.factor = field_plan.factor
        self.offset = field_plan.offset
        self.minimum = field_plan.minimum
        self.maximum = field_plan.maximum
        # Field-range clamp bounds for the *rounded* float (exact ints).
        if field_plan.is_signed:
            self.clamp_min = float(field_plan.signed_min)
            self.clamp_max = float(field_plan.signed_max)
        else:
            self.clamp_min = 0.0
            self.clamp_max = float(field_plan.mask)
        # Raw field values of the last encoded batch, *pre-wrap* (i.e. the
        # signed value a decoder recovers), for physical-value readback.
        self.raw = np.zeros(capacity, dtype=np.int64)
        self.physical_out = np.zeros(capacity, dtype=np.float64)


class BatchMessageCodec:
    """Vectorised encoder for one CAN message over a batch of runs.

    Args:
        plan: The compiled scalar plan this codec must stay bit-identical
            to (supplies the field layout and checksum configuration).
        signals: The value-carrying signals the caller provides arrays
            for.  All other signals encode as zero — exactly like a
            scalar ``values`` dict that omits them.  ``COUNTER`` and
            ``CHECKSUM`` are handled implicitly and must not be listed.
        capacity: Maximum batch size (arrays are preallocated once).
        constants: Signals whose physical value is the same for every run
            and every step (e.g. ``STEER_REQUEST`` is always 1.0).  Their
            raw bits are packed once at construction and folded into the
            accumulator's initial value, costing nothing per encode.
        integral: Signals from ``signals`` whose input values are
            guaranteed to be exact non-negative integers within the field
            range (e.g. 0.0/1.0 request bits).  They skip the
            scale/round/clamp pipeline — a truncating cast is already
            exact — which trims the fixed dispatch cost per pass.  Results
            are identical; the guarantee is the caller's.
    """

    def __init__(
        self,
        plan: MessagePlan,
        signals: Sequence[str],
        capacity: int,
        constants: Optional[Dict[str, float]] = None,
        integral: Sequence[str] = (),
    ):
        self.plan = plan
        self.message = plan.message
        self.capacity = capacity
        self.length = plan.message.length
        # Constant signals are packed once into the accumulator's initial
        # value, exactly as the scalar layout packer folds them.
        self._acc_base = plan.layout_base(signals, constants or {})
        if set(integral) - set(signals):
            raise ValueError("integral signals must be a subset of signals")
        self._fields: Dict[str, _BatchFieldPlan] = {
            name: _BatchFieldPlan(plan.fields[name], capacity) for name in signals
        }
        integral = set(integral)
        self._plans = tuple(
            plan for plan in self._fields.values() if plan.name not in integral
        )
        self._integral_plans = tuple(
            plan for plan in self._fields.values() if plan.name in integral
        )
        counter = plan.fields.get("COUNTER")
        self._counter_shift = counter.shift if counter is not None else None
        self._counter_mask = counter.mask if counter is not None else None
        # (8 - address nibble sum) mod 2^64: the checksum negation constant,
        # applied in wrapping uint64 arithmetic (congruent mod 16).
        self._checksum_base = np.uint64(
            (8 - address_nibble_sum(plan.message.address)) % (1 << 64)
        )
        self._byte_offset = 8 - self.length
        # Caller-facing input arrays plus reusable scratch (out= targets).
        self.values: Dict[str, np.ndarray] = {
            name: np.zeros(capacity, dtype=np.float64) for name in signals
        }
        self.counters = np.zeros(capacity, dtype=np.int64)
        self._acc = np.zeros(capacity, dtype=np.uint64)
        self._f8 = np.zeros(capacity, dtype=np.float64)
        self._i64 = np.zeros(capacity, dtype=np.int64)
        self._u64 = np.zeros(capacity, dtype=np.uint64)
        self._fold_a = np.zeros(capacity, dtype=np.uint64)
        self._fold_b = np.zeros(capacity, dtype=np.uint64)
        self._n = 0

    def encode(self, n: int, counters: Optional[np.ndarray] = None) -> List[bytes]:
        """Encode the first ``n`` entries of :attr:`values` into payloads.

        Returns one checksummed payload ``bytes`` per run, byte-identical
        to ``plan.encode({...}, counter=counters[i])`` run by run.  The
        per-signal raw arrays are retained for :meth:`physical`.
        """
        acc = self._acc[:n]
        acc.fill(self._acc_base)
        scratch = self._f8[:n]
        raw_i64 = self._i64[:n]
        bits = self._u64[:n]
        for plan in self._integral_plans:
            # Exact small non-negative integers by contract: the truncating
            # cast equals the scalar round-clamp-wrap pipeline.
            raw_i64[:] = self.values[plan.name][:n]
            plan.raw[:n] = raw_i64
            bits[:] = raw_i64
            np.left_shift(bits, plan.shift, out=bits)
            np.bitwise_or(acc, bits, out=acc)
        for plan in self._plans:
            v = self.values[plan.name][:n]
            if plan.minimum is not None:
                v = np.where(v > plan.minimum, v, plan.minimum)
            if plan.maximum is not None:
                v = np.where(v < plan.maximum, v, plan.maximum)
            if plan.offset != 0.0:
                np.subtract(v, plan.offset, out=scratch)
                v = scratch
            if plan.factor != 1.0:
                np.divide(v, plan.factor, out=scratch)
                v = scratch
            np.rint(v, out=scratch)
            np.minimum(scratch, plan.clamp_max, out=scratch)
            np.maximum(scratch, plan.clamp_min, out=scratch)
            raw_i64[:] = scratch  # exact: integral and within the field bounds
            plan.raw[:n] = raw_i64
            np.bitwise_and(raw_i64, plan.mask, out=raw_i64)  # two's-complement wrap
            bits[:] = raw_i64
            np.left_shift(bits, plan.shift, out=bits)
            np.bitwise_or(acc, bits, out=acc)
        if self._counter_shift is not None:
            if counters is None:
                counters = self.counters
            np.bitwise_and(counters[:n], self._counter_mask, out=raw_i64)
            bits[:] = raw_i64
            np.left_shift(bits, self._counter_shift, out=bits)
            np.bitwise_or(acc, bits, out=acc)
        if self.message.checksummed:
            # Nibble-fold the payload: per-byte nibble sums, then fold the
            # eight byte lanes together (sums stay < 256, so no lane ever
            # carries into its neighbour), drop the checksum nibble, negate.
            fold = self._fold_a[:n]
            tmp = self._fold_b[:n]
            np.bitwise_and(acc, _NIBBLE_MASK, out=fold)
            np.right_shift(acc, 4, out=tmp)
            np.bitwise_and(tmp, _NIBBLE_MASK, out=tmp)
            np.add(fold, tmp, out=fold)
            np.right_shift(fold, 32, out=tmp)
            np.add(fold, tmp, out=fold)
            np.right_shift(fold, 16, out=tmp)
            np.add(fold, tmp, out=fold)
            np.right_shift(fold, 8, out=tmp)
            np.add(fold, tmp, out=fold)
            np.bitwise_and(fold, 0xFF, out=fold)
            np.bitwise_and(acc, 0xF, out=tmp)
            np.subtract(fold, tmp, out=fold)
            np.subtract(self._checksum_base, fold, out=fold)  # wraps mod 2^64
            np.bitwise_and(fold, 0xF, out=fold)
            np.bitwise_and(acc, _UINT64_MASK ^ 0xF, out=acc)
            np.bitwise_or(acc, fold, out=acc)
        self._n = n
        big_endian = acc.astype(">u8").tobytes()
        offset = self._byte_offset
        return [big_endian[8 * i + offset : 8 * i + 8] for i in range(n)]

    def physical(self, name: str) -> np.ndarray:
        """Physical values a decoder recovers for ``name`` from the last batch.

        ``raw * factor + offset`` over the retained raw arrays — the exact
        arithmetic of the scalar decode path, vectorised.
        """
        plan = self._fields[name]
        n = self._n
        out = plan.physical_out[:n]
        np.multiply(plan.raw[:n], plan.factor, out=out)
        np.add(out, plan.offset, out=out)
        return out
