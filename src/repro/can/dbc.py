"""DBC-style CAN signal definitions and packing.

A Database Container (DBC) file describes how physical signals are laid
out inside CAN payload bytes.  The attacker in the paper uses the
open-source opendbc definitions to locate the steering command inside the
0xE4 frame; here we implement the same abstraction: a :class:`Signal`
describes a bit field plus scaling, a :class:`MessageDef` groups signals
for one arbitration id, and a :class:`DBC` holds the per-platform message
database with ``encode``/``decode`` entry points.

Bit layout convention: signals are packed big-endian (Motorola byte
order), addressed by the offset of their most significant bit counting
from the MSB of byte 0.  This is sufficient for the Honda-style messages
modelled in :mod:`repro.can.honda` and keeps the codec easy to verify.

Performance
-----------

Every 10 ms control cycle sends four frames and reads each of them
straight back (the world publishes the car's state, the ADAS its
actuator commands), so the :class:`DBC` builds a :class:`MessagePlan` per
message at construction time, whose functions are generated with every
shift, mask and scaling constant embedded as a literal:

* ``encode(values)`` and ``decode(frame)`` take and return dicts keyed by
  signal name, for callers that handle arbitrary signals (the CAN-level
  attacker in :mod:`repro.core.can_tamper`, the Panda safety model);
* a :class:`FrameLayout` declares one sender's per-step use of a message
  and compiles a positional packer, ``pack(counter, *values)``, with the
  layout's constant signals folded into the int it starts from, and a
  reader, ``read(frame) -> tuple``.  The hot callers in
  :mod:`repro.sim.world` and :mod:`repro.adas.openpilot` use these, so a
  control cycle builds no value dicts and looks up no signal names;
* the payload is one Python int throughout: fields are OR-ed into it,
  the Honda checksum is folded from it, and one ``int.to_bytes`` or
  ``int.from_bytes`` converts it;
* each plan memoizes the payloads it recently packed or decoded in a
  bounded dict keyed by payload bytes, so reading a frame that was just
  packed skips both the int conversion and the checksum verification.
  The memo is multi-entry because the lockstep batch executor
  (:mod:`repro.kernel.batch`) interleaves the cycles of many runs
  through the same shared plan.

Plans keep no per-call state: every entry point works on locals and the
memo is only ever read or written one whole entry at a time, so threads
may share a plan.  The loop-per-signal reference implementation is kept
as :func:`_pack_field`/:func:`_unpack_field`, and
``tests/unit/test_can_codec_plans.py`` pins the compiled plans to it.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.can.checksum import address_nibble_sum, verify_checksum
from repro.can.frame import CANFrame


@dataclass(frozen=True)
class Signal:
    """One physical signal inside a CAN message.

    Attributes:
        name: Signal name, e.g. ``"STEER_ANGLE_CMD"``.
        msb_offset: Offset of the signal's most significant bit, counted
            from the MSB of payload byte 0.
        size: Width in bits (1..64).
        factor: Physical value = raw * factor + offset.
        offset: See ``factor``.
        is_signed: Whether the raw value is two's-complement signed.
        minimum / maximum: Optional physical-range clamp applied on encode.
    """

    name: str
    msb_offset: int
    size: int
    factor: float = 1.0
    offset: float = 0.0
    is_signed: bool = False
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self):
        if not 1 <= self.size <= 64:
            raise ValueError(f"signal {self.name!r}: size must be 1..64, got {self.size}")
        if self.msb_offset < 0:
            raise ValueError(f"signal {self.name!r}: negative bit offset")
        if self.factor == 0:
            raise ValueError(f"signal {self.name!r}: factor must be non-zero")

    def to_raw(self, physical: float) -> int:
        """Convert a physical value to the raw integer field value."""
        value = physical
        if self.minimum is not None:
            value = max(self.minimum, value)
        if self.maximum is not None:
            value = min(self.maximum, value)
        raw = int(round((value - self.offset) / self.factor))
        if self.is_signed:
            limit = 1 << (self.size - 1)
            raw = max(-limit, min(limit - 1, raw))
            if raw < 0:
                raw += 1 << self.size
        else:
            raw = max(0, min((1 << self.size) - 1, raw))
        return raw

    def to_physical(self, raw: int) -> float:
        """Convert a raw integer field value to the physical value."""
        value = raw
        if self.is_signed and raw >= 1 << (self.size - 1):
            value = raw - (1 << self.size)
        return value * self.factor + self.offset


@dataclass(frozen=True)
class MessageDef:
    """Definition of one CAN message (arbitration id + its signals)."""

    name: str
    address: int
    length: int
    signals: Mapping[str, Signal] = field(default_factory=dict)
    checksummed: bool = True

    def __post_init__(self):
        if not 1 <= self.length <= 8:
            raise ValueError(f"message {self.name!r}: length must be 1..8 bytes")
        total_bits = self.length * 8
        used = 0
        for sig in self.signals.values():
            if sig.msb_offset + sig.size > total_bits:
                raise ValueError(
                    f"signal {sig.name!r} does not fit in {self.length}-byte message {self.name!r}"
                )
            # Disjoint fields let every packer OR its fields together in
            # any order (constants first) and still match the reference.
            bits = ((1 << sig.size) - 1) << (total_bits - sig.msb_offset - sig.size)
            if used & bits:
                raise ValueError(
                    f"signal {sig.name!r} overlaps another signal of message {self.name!r}"
                )
            used |= bits


def _pack_field(data: bytearray, msb_offset: int, size: int, raw: int) -> None:
    """Reference field packer (per-call shift/mask computation)."""
    total_bits = len(data) * 8
    shift = total_bits - msb_offset - size
    value = int.from_bytes(data, "big")
    mask = ((1 << size) - 1) << shift
    value = (value & ~mask) | ((raw << shift) & mask)
    data[:] = value.to_bytes(len(data), "big")


def _unpack_field(data: bytes, msb_offset: int, size: int) -> int:
    """Reference field unpacker (per-call shift/mask computation)."""
    total_bits = len(data) * 8
    shift = total_bits - msb_offset - size
    value = int.from_bytes(data, "big")
    return (value >> shift) & ((1 << size) - 1)


class _FieldPlan:
    """Precompiled constants for one signal inside one message."""

    __slots__ = (
        "name",
        "signal",
        "shift",
        "mask",
        "factor",
        "offset",
        "minimum",
        "maximum",
        "is_signed",
        "sign_bit",
        "wrap",
        "signed_min",
        "signed_max",
    )

    def __init__(self, signal: Signal, total_bits: int):
        self.name = signal.name
        self.signal = signal
        self.shift = total_bits - signal.msb_offset - signal.size
        self.mask = (1 << signal.size) - 1
        self.factor = signal.factor
        self.offset = signal.offset
        self.minimum = signal.minimum
        self.maximum = signal.maximum
        self.is_signed = signal.is_signed
        # For signed fields: raw >= sign_bit means negative, subtract wrap.
        self.sign_bit = 1 << (signal.size - 1) if signal.is_signed else 0
        self.wrap = 1 << signal.size
        self.signed_min = -(1 << (signal.size - 1))
        self.signed_max = (1 << (signal.size - 1)) - 1

    def to_physical(self, raw: int) -> float:
        if self.sign_bit and raw >= self.sign_bit:
            raw -= self.wrap
        return raw * self.factor + self.offset


#: Sentinel distinguishing "signal not in the values dict" from any value.
_MISSING = object()

#: Signals every packer fills itself: from its ``counter`` argument and
#: the checksum of the packed payload.
_RESERVED = ("COUNTER", "CHECKSUM")

#: Decode-memo entries kept per plan before the memo is wholesale cleared.
#: Sized for a full lockstep batch (every run contributes one payload per
#: message per step) with plenty of slack; clearing is O(1) amortized.
_MEMO_CAPACITY = 256


def _float_literal(value: float) -> str:
    """A source literal that round-trips to exactly ``value``."""
    return repr(float(value))


def _pack_field_lines(plan: _FieldPlan, var: str, indent: str) -> List[str]:
    """Source that turns physical ``var`` into its raw bits, OR-ed into ``acc``.

    The arithmetic mirrors :meth:`Signal.to_raw` exactly — including the
    ``max``/``min`` clamp semantics — so the output is byte-identical to
    the reference encoder; ``tests/unit/test_can_codec_plans.py`` pins
    that equivalence.
    """
    lines = []
    if plan.minimum is not None:
        lines.append(f"if not {var} > {_float_literal(plan.minimum)}:")
        lines.append(f"    {var} = {_float_literal(plan.minimum)}")
    if plan.maximum is not None:
        lines.append(f"if not {var} < {_float_literal(plan.maximum)}:")
        lines.append(f"    {var} = {_float_literal(plan.maximum)}")
    expr = var
    if plan.offset != 0.0:
        expr = f"({expr} - {_float_literal(plan.offset)})"
    if plan.factor != 1.0:
        expr = f"{expr} / {_float_literal(plan.factor)}"
    lines.append(f"raw = int(round({expr}))")
    if plan.is_signed:
        lines.append(f"if raw < {plan.signed_min}:")
        lines.append(f"    raw = {plan.signed_min}")
        lines.append(f"elif raw > {plan.signed_max}:")
        lines.append(f"    raw = {plan.signed_max}")
        lines.append("if raw < 0:")
        lines.append(f"    raw += {plan.wrap}")
    else:
        lines.append("if raw < 0:")
        lines.append("    raw = 0")
        lines.append(f"elif raw > {plan.mask}:")
        lines.append(f"    raw = {plan.mask}")
    lines.append(f"acc |= raw << {plan.shift}")
    return [indent + line for line in lines]


def _pack_tail_lines(message: MessageDef, fields: Dict[str, _FieldPlan]) -> List[str]:
    """Source every packer ends with: counter, checksum, bytes, memo entry."""
    lines = []
    counter = fields.get("COUNTER")
    if counter is not None:
        lines.append(f"acc |= (counter & {counter.mask}) << {counter.shift}")
    if message.checksummed:
        # The Honda checksum (repro.can.checksum.honda_checksum), folded
        # from the int: `nibbles` holds each byte's nibble sum (< 31) in
        # that byte's lane, and since 256 % 255 == 1, `nibbles % 255` adds
        # the lanes up (their total is at most 8 * 30 = 240).
        low_nibbles = int("0f" * message.length, 16)
        lines.append(f"nibbles = (acc & {low_nibbles}) + ((acc >> 4) & {low_nibbles})")
        lines.append(
            f"acc = (acc & -16) | (({8 - address_nibble_sum(message.address)}"
            " - nibbles % 255 + (acc & 15)) & 15)"
        )
    lines.append(f"data = acc.to_bytes({message.length}, 'big')")
    lines.append("if len(_memo) >= _MEMO_CAPACITY:")
    lines.append("    _memo.clear()")
    lines.append("_memo[data] = [acc, True]")
    lines.append("return data")
    return ["    " + line for line in lines]


def _encode_source(message: MessageDef, fields: Dict[str, _FieldPlan]) -> str:
    """Source of ``encode(values, counter=0)``, keyed by signal name."""
    lines = [
        "def encode(values, counter=0):",
        "    if not _names.issuperset(values):",
        "        _require_known(values)",
        "    acc = 0",
    ]
    for name, plan in fields.items():
        if name in _RESERVED:
            continue
        lines.append(f"    v = values.get({name!r}, _MISSING)")
        lines.append("    if v is not _MISSING:")
        lines.extend(_pack_field_lines(plan, "v", "        "))
    lines.extend(_pack_tail_lines(message, fields))
    return "\n".join(lines)


def _packer_source(
    message: MessageDef, fields: Dict[str, _FieldPlan], signals: Sequence[str], base: int
) -> str:
    """Source of ``pack(counter, *values)`` starting from the int ``base``."""
    params = [f"v{i}" for i in range(len(signals))]
    lines = [f"def pack({', '.join(['counter', *params])}):", f"    acc = {base}"]
    for var, name in zip(params, signals):
        lines.extend(_pack_field_lines(fields[name], var, "    "))
    lines.extend(_pack_tail_lines(message, fields))
    return "\n".join(lines)


def _reader_source(fields: Dict[str, _FieldPlan], signals: Sequence[str]) -> str:
    """Source of ``read(frame)``: the physical values of ``signals``, unpacked
    from the memoized int with :meth:`_FieldPlan.to_physical`'s arithmetic."""
    lines = [
        "def read(frame):",
        "    data = frame.data",
        "    entry = _memo_get(data)",
        "    if entry is None or not entry[1]:",
        "        entry = _lookup(data, True)",
        "    acc = entry[0]",
    ]
    values = []
    for i, name in enumerate(signals):
        plan = fields[name]
        lines.append(f"    r{i} = (acc >> {plan.shift}) & {plan.mask}")
        if plan.sign_bit:
            lines.append(f"    if r{i} >= {plan.sign_bit}:")
            lines.append(f"        r{i} -= {plan.wrap}")
        values.append(
            f"r{i} * {_float_literal(plan.factor)} + {_float_literal(plan.offset)}, "
        )
    lines.append(f"    return ({''.join(values)})")
    return "\n".join(lines)


class MessagePlan:
    """Compiled encode/decode plan for one :class:`MessageDef`.

    Plans are built once per DBC.  They keep no per-call state — the only
    shared structure is the bounded decode memo, whose entries
    ``[packed_int, checksum_verified]`` are read and written whole — so
    threads may share one plan (e.g. the campaign service's in-process
    chunks on executor threads).  ``checksum_verified`` is also true for a
    message without a checksum.
    """

    def __init__(self, message: MessageDef):
        self.message = message
        total_bits = message.length * 8
        self.fields: Dict[str, _FieldPlan] = {
            name: _FieldPlan(sig, total_bits) for name, sig in message.signals.items()
        }
        self._names = frozenset(self.fields)
        self._memo: Dict[bytes, list] = {}
        self._encode = self._compile(_encode_source(message, self.fields), "encode")

    def _compile(self, source: str, name: str) -> Callable:
        namespace = {
            "_MISSING": _MISSING,
            "_MEMO_CAPACITY": _MEMO_CAPACITY,
            "_memo": self._memo,
            "_memo_get": self._memo.get,
            "_names": self._names,
            "_require_known": self._require_known,
            "_lookup": self._lookup,
        }
        exec(source, namespace)
        return namespace[name]

    def _require_known(self, names: Iterable[str]) -> None:
        unknown = set(names) - self._names
        if unknown:
            raise KeyError(
                f"unknown signals for message {self.message.name!r}: {sorted(unknown)}"
            )

    # -- encode ----------------------------------------------------------

    def encode(self, values: Mapping[str, float], counter: int = 0) -> bytes:
        """Encode physical ``values`` into payload bytes (with checksum).

        Also seeds the decode memo: a frame just encoded is by far the
        most likely frame to be decoded next.
        """
        return self._encode(values, counter)

    def packer(
        self, signals: Sequence[str], constants: Optional[Mapping[str, float]] = None
    ) -> Callable[..., bytes]:
        """Compile ``pack(counter, *values) -> bytes`` for one frame layout.

        ``pack`` takes one physical value per name in ``signals``, in that
        order.  The ``constants`` are packed once, here, into the int every
        call starts from, and every other signal encodes as zero.  Its bytes
        equal ``encode({**dict(zip(signals, values)), **constants}, counter)``
        and, like :meth:`encode`, it seeds the decode memo.  This runs
        ``exec``: compile once per layout and keep the function.
        """
        base = self.layout_base(signals, constants or {})
        return self._compile(_packer_source(self.message, self.fields, signals, base), "pack")

    def layout_base(self, signals: Sequence[str], constants: Mapping[str, float]) -> int:
        """The packed int of a frame layout's ``constants``, which every
        encode of the layout starts from (every other signal bit is zero).

        Rejects a layout that names an unknown signal (``KeyError``), lists
        ``COUNTER``/``CHECKSUM`` or names a signal twice (``ValueError``).
        """
        names = [*signals, *constants]
        self._require_known(names)
        if set(names) & set(_RESERVED):
            raise ValueError("COUNTER/CHECKSUM are implicit and must not be listed")
        if len(set(names)) != len(names):
            raise ValueError(
                f"a signal of message {self.message.name!r} is listed twice: {names}"
            )
        base = 0
        for name, value in constants.items():
            plan = self.fields[name]
            base |= plan.signal.to_raw(value) << plan.shift
        return base

    # -- decode ----------------------------------------------------------

    def reader(self, signals: Sequence[str]) -> Callable[[CANFrame], Tuple[float, ...]]:
        """Compile ``read(frame) -> tuple`` of the physical values of ``signals``.

        The values equal ``decode(frame)[name]``.  A payload this plan
        packed (or already verified) is read straight from its memo entry;
        any other goes through :meth:`decode`'s length and checksum checks
        first.  This runs ``exec``: compile once and keep the function.
        """
        self._require_known(signals)
        return self._compile(_reader_source(self.fields, signals), "read")

    def _lookup(self, data: bytes, check: bool) -> list:
        """The memo entry for ``data``, registered on a miss, with its
        checksum verified first when ``check`` is set."""
        message = self.message
        memo = self._memo
        entry = memo.get(data)
        if entry is None:
            if len(data) != message.length:
                raise ValueError(
                    f"message {message.name!r} expects {message.length} bytes, "
                    f"frame has {len(data)}"
                )
            entry = [int.from_bytes(data, "big"), not message.checksummed]
            if len(memo) >= _MEMO_CAPACITY:
                memo.clear()
            memo[data] = entry
        if check and not entry[1]:
            if not verify_checksum(message.address, data):
                raise ValueError(
                    f"checksum mismatch on message {message.name!r} ({message.address:#x})"
                )
            entry[1] = True
        return entry

    def decode(
        self, frame: CANFrame, check: bool = True, signals: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """Decode ``frame`` into physical values (optionally a subset)."""
        acc = self._lookup(frame.data, check)[0]
        fields = self.fields
        try:
            plans = [fields[name] for name in (fields if signals is None else signals)]
        except KeyError as exc:
            raise KeyError(
                f"message {self.message.name!r} has no signal named {exc.args[0]!r}"
            ) from None
        return {plan.name: plan.to_physical((acc >> plan.shift) & plan.mask) for plan in plans}

    def decode_signal(self, frame: CANFrame, name: str, check: bool = True) -> float:
        """Single-signal decode."""
        acc = self._lookup(frame.data, check)[0]
        try:
            plan = self.fields[name]
        except KeyError:
            raise KeyError(
                f"message {self.message.name!r} has no signal named {name!r}"
            ) from None
        return plan.to_physical((acc >> plan.shift) & plan.mask)


class FrameLayout:
    """One sender's per-step use of a message, declared once.

    Args:
        plan: The message's compiled plan.
        signals: The signals that vary per step, in the order :attr:`pack`
            takes their values.
        constants: Signals that carry the same physical value every step.
        integral: Those of ``signals`` whose values are always exact small
            non-negative integers (0/1 request bits).  Only the vectorised
            :class:`~repro.can.batch_codec.BatchMessageCodec` uses this, to
            skip their rounding.
        reads: The signals the receiver reads back each step, in the order
            :attr:`read` returns them.

    :attr:`pack` and :attr:`read` are compiled here, once.  The lockstep
    batch executor builds its vectorised codecs from the same layouts, so
    the scalar and the vectorised cycle cannot disagree on a frame.
    """

    __slots__ = ("plan", "signals", "constants", "integral", "reads", "pack", "read")

    def __init__(
        self,
        plan: MessagePlan,
        signals: Sequence[str],
        constants: Optional[Mapping[str, float]] = None,
        integral: Sequence[str] = (),
        reads: Sequence[str] = (),
    ):
        self.plan = plan
        self.signals = tuple(signals)
        self.constants = dict(constants or {})
        self.integral = tuple(integral)
        self.reads = tuple(reads)
        self.pack = plan.packer(self.signals, self.constants)
        self.read = plan.reader(self.reads)


class DBC:
    """A message database: encode/decode physical signal dicts to frames."""

    def __init__(self, name: str, messages: Iterable[MessageDef]):
        self.name = name
        self._by_address: Dict[int, MessageDef] = {}
        self._by_name: Dict[str, MessageDef] = {}
        self._plan_by_address: Dict[int, MessagePlan] = {}
        self._plan_by_name: Dict[str, MessagePlan] = {}
        for msg in messages:
            if msg.address in self._by_address:
                raise ValueError(f"duplicate address {msg.address:#x} in DBC {name!r}")
            self._by_address[msg.address] = msg
            self._by_name[msg.name] = msg
            plan = MessagePlan(msg)
            self._plan_by_address[msg.address] = plan
            self._plan_by_name[msg.name] = plan

    def message_by_address(self, address: int) -> MessageDef:
        try:
            return self._by_address[address]
        except KeyError:
            raise KeyError(f"DBC {self.name!r} has no message at {address:#x}") from None

    def message_by_name(self, name: str) -> MessageDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"DBC {self.name!r} has no message named {name!r}") from None

    def addresses(self) -> Iterable[int]:
        return self._by_address.keys()

    def plan_by_address(self, address: int) -> MessagePlan:
        """The compiled :class:`MessagePlan` for the message at ``address``."""
        try:
            return self._plan_by_address[address]
        except KeyError:
            raise KeyError(f"DBC {self.name!r} has no message at {address:#x}") from None

    def plan_by_name(self, name: str) -> MessagePlan:
        """The compiled :class:`MessagePlan` for the message named ``name``."""
        try:
            return self._plan_by_name[name]
        except KeyError:
            raise KeyError(f"DBC {self.name!r} has no message named {name!r}") from None

    def encode(
        self,
        name: str,
        values: Mapping[str, float],
        counter: int = 0,
        bus: int = 0,
        timestamp: float = 0.0,
    ) -> CANFrame:
        """Encode physical ``values`` into a checksummed :class:`CANFrame`.

        Unknown signal names are rejected *before* any packing work.
        Signals not present in ``values`` are encoded as zero.  The message's
        ``COUNTER`` signal, if defined, is set from ``counter``; the
        ``CHECKSUM`` signal, if defined, is filled in last.
        """
        plan = self.plan_by_name(name)
        data = plan.encode(values, counter)
        return CANFrame(plan.message.address, data, bus=bus, timestamp=timestamp)

    def decode(
        self,
        frame: CANFrame,
        check: bool = True,
        signals: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """Decode a frame into a dict of physical signal values.

        Args:
            frame: The frame to decode; its address must exist in the DBC.
            check: If True (default) and the message is checksummed, raise
                ``ValueError`` when the embedded checksum is wrong.
            signals: Optional subset of signal names to decode; ``None``
                decodes every signal of the message.
        """
        return self.plan_by_address(frame.address).decode(frame, check=check, signals=signals)

    def decode_signal(self, frame: CANFrame, name: str, check: bool = True) -> float:
        """Decode a single signal from ``frame``."""
        return self.plan_by_address(frame.address).decode_signal(frame, name, check=check)
