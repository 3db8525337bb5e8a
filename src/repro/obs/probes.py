"""Probe bus: the engines' one packet-event channel, free when off.

The simulator carries a ``_probes`` attribute that is ``None`` by
default.  Every hook point in the engine is guarded by a single ``if
self._probes is not None`` check, so with probes disabled the cost per
site is one attribute load and one identity test — no allocation, no
call.  A simulator carries at most one bus, which :meth:`ProbeBus.of`
returns (attaching it on first use); an observer joins it with
:meth:`ProbeBus.join`, which subscribes each ``on_<event>`` method it
defines, so the collectors, the trace recorder and the injection
capture (:mod:`repro.network.trace`) attach in any order.  Subscribers
are called per event in subscription order.

Probes are **observational**: they must never mutate simulator state,
and the engine emits them *after* the corresponding state change, so
enabling any combination of probes leaves
:meth:`NetworkStats.snapshot` bit-identical (enforced by
``tests/test_obs_probes.py`` and the ``repro bench obs`` guard).

Probe catalogue (see ``docs/observability.md`` for the prose version):

========== ============================================== ==============
event      callback signature                             emitted by
========== ============================================== ==============
admit      (cycle, pid, flow, src, dst, size, protected)  both engines
inject     (cycle, pid, flow, station_label, attempt)     both engines
release    (cycle, pid, flow, ready_at, released_at)      both engines
hop        (cycle, pid, flow, port_index, port_label,     both engines
            size, is_ejection, hop_index)
deliver    (cycle, pid, flow, dst, size, latency)         both engines
preempt    (cycle, pid, flow, station_label, tiles_done)  both engines
nack       (cycle, pid, flow, attempt)                    both engines
frame      (cycle,)                                       both engines
arb_block  (cycle, port_index, candidates)                optimised only
arm        (cycle, flow)                                  optimised only
sleep      (cycle, flow)                                  optimised only
skip       (cycle, target)                                optimised only
========== ============================================== ==============

``admit`` fires when a packet is materialised into its injector's
pending queue (global creation order); ``inject`` when it is placed
into a dedicated injection VC (once per attempt); ``release`` just
before that ``inject`` when the policy defers the placement's first
arbitration from ``ready_at`` to ``released_at`` (GSF's frame window;
one per deferral that ``deferral_count()`` counts); ``hop`` when it
wins output-port arbitration and starts a link/ejection traversal
(``hop_index`` is the hop's index on the current attempt); ``deliver``
at tail delivery; ``preempt``/``nack`` on the PVC preemption path;
``frame`` at each frame rollover.  The last four events expose
optimised-engine internals — a port pass that concluded blocked,
injector bookkeeping arming/settling, and the activity tracker's
idle-cycle jumps (``skip`` means the clock is about to jump from
``cycle`` straight to ``target``) — the frozen golden engine has no
such machinery, so those events are deliberately absent there.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError

#: Events emitted by both engines — identical arguments, identical
#: order, so packet-level collectors are engine-agnostic.
PACKET_EVENTS = (
    "admit", "inject", "release", "hop", "deliver", "preempt", "nack", "frame",
)

#: Optimised-engine internals (absent in the golden reference).
ENGINE_EVENTS = ("arb_block", "arm", "sleep", "skip")

PROBE_EVENTS = PACKET_EVENTS + ENGINE_EVENTS


class ProbeBus:
    """Fan-out point between engine hook sites and collectors.

    Emit methods are named after the events and called directly by the
    engine (``self._probes.hop(...)``); each loops over its subscriber
    list, which is empty by default, so an attached-but-unsubscribed
    event costs one method call.
    """

    __slots__ = ("_observers",) + tuple("_" + event for event in PROBE_EVENTS)

    def __init__(self) -> None:
        self._observers: list = []
        for event in PROBE_EVENTS:
            setattr(self, "_" + event, [])

    def subscribe(self, event: str, callback: Callable) -> None:
        """Register ``callback`` for ``event`` (see the catalogue)."""
        if event not in PROBE_EVENTS:
            raise ConfigurationError(
                f"unknown probe event {event!r}; expected one of "
                f"{', '.join(PROBE_EVENTS)}"
            )
        getattr(self, "_" + event).append(callback)

    def join(self, observer) -> None:
        """Subscribe each ``on_<event>`` method of ``observer``, once per bus."""
        if any(joined is observer for joined in self._observers):
            return
        self._observers.append(observer)
        for event in PROBE_EVENTS:
            handler = getattr(observer, "on_" + event, None)
            if handler is not None:
                self.subscribe(event, handler)

    @classmethod
    def of(cls, simulator) -> ProbeBus:
        """``simulator``'s bus, attaching a fresh one if it has none."""
        bus = getattr(simulator, "_probes", None)
        if bus is None:
            bus = cls()
            bus.attach(simulator)
        return bus

    def attach(self, simulator) -> None:
        """Enable this bus on ``simulator`` (either engine), if it has none."""
        if not hasattr(simulator, "_probes"):
            raise ConfigurationError(
                f"{type(simulator).__name__} has no probe support"
            )
        if simulator._probes not in (None, self):
            raise ConfigurationError(
                "simulator already carries a probe bus; join it with "
                "ProbeBus.of(simulator)"
            )
        simulator._probes = self

    @staticmethod
    def detach(simulator) -> None:
        """Disable probing on ``simulator`` (back to the free path)."""
        simulator._probes = None

    # -- emission (called from engine hook sites) --------------------

    def admit(self, cycle, pid, flow, src, dst, size, protected):
        for callback in self._admit:
            callback(cycle, pid, flow, src, dst, size, protected)

    def inject(self, cycle, pid, flow, station_label, attempt):
        for callback in self._inject:
            callback(cycle, pid, flow, station_label, attempt)

    def release(self, cycle, pid, flow, ready_at, released_at):
        for callback in self._release:
            callback(cycle, pid, flow, ready_at, released_at)

    def hop(self, cycle, pid, flow, port_index, port_label, size, is_ejection,
            hop_index):
        for callback in self._hop:
            callback(cycle, pid, flow, port_index, port_label, size,
                     is_ejection, hop_index)

    def deliver(self, cycle, pid, flow, dst, size, latency):
        for callback in self._deliver:
            callback(cycle, pid, flow, dst, size, latency)

    def preempt(self, cycle, pid, flow, station_label, tiles_done):
        for callback in self._preempt:
            callback(cycle, pid, flow, station_label, tiles_done)

    def nack(self, cycle, pid, flow, attempt):
        for callback in self._nack:
            callback(cycle, pid, flow, attempt)

    def frame(self, cycle):
        for callback in self._frame:
            callback(cycle)

    def arb_block(self, cycle, port_index, candidates):
        for callback in self._arb_block:
            callback(cycle, port_index, candidates)

    def arm(self, cycle, flow):
        for callback in self._arm:
            callback(cycle, flow)

    def sleep(self, cycle, flow):
        for callback in self._sleep:
            callback(cycle, flow)

    def skip(self, cycle, target):
        for callback in self._skip:
            callback(cycle, target)
