"""A small deterministic discrete-event simulation engine.

The parallel-file-system simulator in :mod:`repro.pfs` is built on this
engine.  It is intentionally minimal: a binary-heap event queue keyed by
``(time, sequence)`` so that events scheduled at the same instant fire
in FIFO order, which makes every simulation fully deterministic.

Two programming styles are supported:

* **callback events** via :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at`;
* **generator processes** via :meth:`Simulator.spawn`.  A process is a
  Python generator that yields either a delay (``float`` seconds) or a
  :class:`Waitable` (e.g. :class:`Completion`), and is resumed when the
  delay elapses or the waitable fires.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

from ..exceptions import SimulationError

__all__ = ["Event", "Completion", "Waitable", "Simulator", "Process"]


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.  Ordered by ``(time, seq)`` for determinism."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)


class Waitable:
    """Something a process can ``yield`` on: fires once, resumes waiters."""

    __slots__ = ("_fired", "_value", "_waiters")

    def __init__(self) -> None:
        self._fired = False
        self._value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        """Whether :meth:`fire` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value passed to :meth:`fire` (``None`` before firing)."""
        return self._value

    def fire(self, value: Any = None) -> None:
        """Mark the waitable complete and resume all waiters in order."""
        if self._fired:
            raise SimulationError("Waitable fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def add_waiter(self, fn: Callable[[Any], None]) -> None:
        """Register ``fn`` to run on fire; runs immediately if already fired."""
        if self._fired:
            fn(self._value)
        else:
            self._waiters.append(fn)


class Completion(Waitable):
    """A :class:`Waitable` representing the completion of one operation.

    Carries an optional ``result`` payload (set by :meth:`Waitable.fire`).
    """


class AllOf(Waitable):
    """Fires when all child waitables have fired.

    The fire value is the list of child values in input order.  Useful
    for a process that issues several sub-operations and must wait for
    the slowest one — exactly the "a file request completes when its
    slowest sub-request completes" semantics of parallel file systems.
    """

    def __init__(self, children: Iterable[Waitable]) -> None:
        super().__init__()
        self._children = list(children)
        self._pending = len(self._children)
        if self._pending == 0:
            self.fire([])
            return
        for child in self._children:
            child.add_waiter(self._child_done)

    def _child_done(self, _value: Any) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.fire([c.value for c in self._children])


ProcessGen = Generator[Any, Any, None]


class Process:
    """Drives a generator through the simulator.

    The generator yields:

    * a non-negative ``float``/``int`` — sleep that many simulated
      seconds;
    * a :class:`Waitable` — resume (with its value) when it fires.

    When the generator returns, :attr:`done` fires with the value of a
    ``return`` statement (``StopIteration.value``).
    """

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        self._sim = sim
        self._gen = gen
        self.name = name
        self.done = Completion()
        # bind the resume callbacks once; a per-resume lambda/bound-method
        # allocation on every yield is pure overhead
        self._on_fire = self._step
        self._on_delay = self._resume_from_delay
        self._step(None)

    def _resume_from_delay(self) -> None:
        self._step(None)

    def _step(self, send_value: Any) -> None:
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.done.fire(stop.value)
            return
        if isinstance(yielded, Waitable):
            yielded.add_waiter(self._on_fire)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {yielded}"
                )
            self._sim.schedule(float(yielded), self._on_delay)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {yielded!r}; expected a "
                "delay or a Waitable"
            )


class Simulator:
    """Deterministic event-heap simulator with a floating-point clock."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past ({time} < {self._now})"
            )
        event = Event(time, next(self._seq), callback)
        heapq.heappush(self._heap, event)
        return event

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator process; returns its :class:`Process` handle."""
        return Process(self, gen, name=name)

    def all_of(self, waitables: Iterable[Waitable]) -> AllOf:
        """Convenience constructor for :class:`AllOf`."""
        return AllOf(waitables)

    def run(self) -> float:
        """Run events until the heap drains; returns the final simulated time."""
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            heap = self._heap
            while heap:
                event = heapq.heappop(heap)
                self._now = event.time
                event.callback()
        finally:
            self._running = False
        return self._now

    def advance_to(self, time: float) -> float:
        """Move the clock to ``time`` without processing any events.

        Used by the flat replay kernel (:mod:`repro.pfs.flat`), which
        computes every completion time arithmetically and only needs
        the clock placed at the end of the replay.  Refuses to move
        backwards or to skip over scheduled work.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot advance to the past ({time} < {self._now})"
            )
        if self._heap:
            raise SimulationError(
                f"advance_to({time}) would skip {len(self._heap)} pending event(s)"
            )
        self._now = time
        return self._now

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)
