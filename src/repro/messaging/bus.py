"""In-process publish/subscribe message bus.

The bus is the Cereal substitute: components publish typed events on named
services and any number of subscribers — including a malicious
eavesdropper — receive them.  Delivery is synchronous and in publication
order, which matches the single-process integration OpenPilot uses when
bridged to a simulator.

Subscriptions hold a bounded queue (``conflate=True`` keeps only the most
recent message, like Cereal's conflate option) so that slow consumers
cannot grow memory without bound.

Hot-path envelope reuse
-----------------------

On a 10 ms control step the sensors publish at 10–20 Hz (about 0.5
``publish`` calls per step) plus the occasional alert.  The ADAS's own
100 Hz services are published only when :meth:`MessageBus.heard` (a
subscriber or a tap), each time with a fresh payload; a publish nobody
would observe only advances the service's sequence number
(:meth:`MessageBus.skip`), so :meth:`MessageBus.publication_count` and
every later ``Event.seq`` are the same whether or not anyone listens.

Most published services have only *conflated* subscribers (the
attack's eavesdropper), whose contract is "the latest message" —
nothing observes the previous envelope once a newer one has been
published.  For those services the bus therefore keeps **one
reusable** :class:`Event` per service and overwrites its fields in place
on every publish, instead of allocating a fresh envelope per message
(the same slots-reuse pattern as the sensor payloads).  The moment a
service gains a non-conflated subscriber — whose queue *does* hold
older envelopes until drained — or any bus tap is registered (the
message log retains every event), publishes fall back to fresh
allocation for good.  Results are bit-identical either way (pinned by
the golden-run suite); only the envelope's identity differs.
"""

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.messaging.events import Event
from repro.messaging.services import SERVICE_LIST, validate_payload


class Subscription:
    """A subscriber's view of one service.

    Use :meth:`latest` for conflated access (most recent message) or
    :meth:`drain` to consume every queued message in order.
    """

    def __init__(self, service: str, conflate: bool = False, maxlen: int = 1024):
        self.service = service
        self.conflate = conflate
        self._queue: Deque[Event] = deque(maxlen=1 if conflate else maxlen)
        self._latest: Optional[Event] = None
        self.updated = False

    def _deliver(self, event: Event) -> None:
        self._queue.append(event)
        self._latest = event
        self.updated = True

    @property
    def latest(self) -> Optional[Event]:
        """The most recently delivered event, or ``None`` if none yet."""
        return self._latest

    def drain(self) -> List[Event]:
        """Return and clear all queued events, oldest first."""
        events = list(self._queue)
        self._queue.clear()
        self.updated = False
        return events

    def clear_updated(self) -> None:
        """Reset the ``updated`` flag (done by :class:`SubMaster.update`)."""
        self.updated = False


class MessageBus:
    """Topic-based synchronous publish/subscribe bus.

    The bus maintains per-service sequence numbers and an optional list of
    tap callbacks, which receive every event regardless of service — used
    by the message log and by tests.
    """

    def __init__(self):
        self._subscriptions: Dict[str, List[Subscription]] = {}
        self._seq: Dict[str, int] = {}
        self._taps: List[Callable[[Event], None]] = []
        self._mono_time = 0.0
        # Envelope reuse (see the module docstring): one reusable Event
        # per service whose subscribers are all conflated; services that
        # ever gain a non-conflated subscriber latch out of the pool.
        self._pooled: Dict[str, Event] = {}
        self._unpoolable: Set[str] = set()

    def set_time(self, mono_time: float) -> None:
        """Advance the bus clock; publications are stamped with this time."""
        if mono_time < self._mono_time:
            raise ValueError(
                f"bus clock must be monotonic: {mono_time} < {self._mono_time}"
            )
        self._mono_time = mono_time

    @property
    def mono_time(self) -> float:
        return self._mono_time

    def subscribe(self, service: str, conflate: bool = False) -> Subscription:
        """Create and register a new :class:`Subscription` for ``service``."""
        sub = Subscription(service, conflate=conflate)
        self._subscriptions.setdefault(service, []).append(sub)
        if not conflate:
            # Non-conflated queues hold older envelopes until drained, so
            # this service's events can never be reused again.
            self._unpoolable.add(service)
            self._pooled.pop(service, None)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscription; unknown subscriptions are ignored."""
        subs = self._subscriptions.get(sub.service, [])
        if sub in subs:
            subs.remove(sub)

    def add_tap(self, callback: Callable[[Event], None]) -> None:
        """Register a callback invoked for every published event."""
        self._taps.append(callback)

    def heard(self, service: str) -> bool:
        """Whether a publish on ``service`` would be observed right now:
        the service has a subscriber or the bus has a tap."""
        return bool(self._taps or self._subscriptions.get(service))

    def skip(self, service: str) -> None:
        """Account for a publish on a service that is not :meth:`heard`.

        Advances the sequence number and nothing else: no payload, no
        envelope, no delivery.
        """
        self._seq[service] = self._seq.get(service, 0) + 1

    def publish(self, service: str, payload: object, valid: bool = True) -> Event:
        """Publish ``payload`` on ``service`` and deliver it to subscribers."""
        # Inline fast path of validate_payload (publish runs on every
        # sensor and alert message); the slow path raises the detailed
        # error.
        spec = SERVICE_LIST.get(service)
        if spec is None or not isinstance(payload, spec.payload_type):
            validate_payload(service, payload)
        seq = self._seq.get(service, 0)
        self._seq[service] = seq + 1
        if self._taps or service in self._unpoolable:
            event = Event(
                service=service,
                seq=seq,
                mono_time=self._mono_time,
                data=payload,
                valid=valid,
            )
        else:
            # All-conflated (or unsubscribed) service: overwrite the
            # pooled envelope in place instead of allocating.
            event = self._pooled.get(service)
            if event is None:
                event = Event(
                    service=service,
                    seq=seq,
                    mono_time=self._mono_time,
                    data=payload,
                    valid=valid,
                )
                self._pooled[service] = event
            else:
                event.seq = seq
                event.mono_time = self._mono_time
                event.data = payload
                event.valid = valid
        for sub in self._subscriptions.get(service, ()):
            sub._deliver(event)
        for tap in self._taps:
            tap(event)
        return event

    def publication_count(self, service: str) -> int:
        """Number of events published on ``service`` so far."""
        return self._seq.get(service, 0)
