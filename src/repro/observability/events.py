"""Structured event log for discrete engine decisions.

Spans time *phases*; events record *decisions*: a plan entering or
leaving the MEMO, a pipelined plan surviving only because of the
Section 3.3 pruning exemption, Algorithm Propagate assigning a depth to
a plan node, the robustness layer re-estimating or falling back.  Each
event has a ``kind``, a monotonically increasing ``sequence`` number
(total order within one log), and free-form attributes.

Kinds emitted by the engine (see ``docs/observability.md``):

========================  ====================================================
kind                      emitted when
========================  ====================================================
``memo_insert``           a plan is retained in a MEMO entry
``plan_pruned``           a plan is rejected or evicted by the dominance test
``pipelining_exemption``  a pipelined plan survives a cheaper blocking plan
``propagate_depth``       Algorithm Propagate assigns a depth to a plan node
``recovery``              a guarded run records a recovery decision
``checkpoint``            a checkpoint is taken
``checkpoint_restore``    a checkpoint is restored into a tree
``durable_checkpoint``    a snapshot is written to a state directory
``durable_corruption``    a snapshot fails validation and is deleted
``admit`` / ``reject``    admission accepts or refuses a served query
``shed``                  admission degrades a query under load
``instalment``            the scheduler grants a budget instalment
``preempt``               an instalment ends with the query suspended
``retry``                 the scheduler retries a transient failure
``complete``              a served query finishes
``deadline_cancel``       a served query is cancelled at its deadline
``drain``                 shutdown leaves a queued query unfinished
``recover``               a server re-admits a journalled query
``recover_failed``        a journalled query cannot be re-admitted
========================  ====================================================

A log is thread-safe: the server emits from its event loop and from
the instalment worker thread into one log.  Components that may run
unwired hold :data:`NULL_EVENTS` instead of ``None``.
"""

import threading


class Event:
    """One recorded decision."""

    __slots__ = ("kind", "sequence", "attributes")

    def __init__(self, kind, sequence, attributes):
        self.kind = kind
        self.sequence = sequence
        self.attributes = attributes

    def as_dict(self):
        return {"kind": self.kind, "sequence": self.sequence,
                "attributes": dict(self.attributes)}

    def describe(self):
        attrs = ", ".join("%s=%s" % (key, value)
                          for key, value in sorted(self.attributes.items()))
        return "#%d %s: %s" % (self.sequence, self.kind, attrs)

    def __repr__(self):
        return "Event(%s)" % (self.describe(),)


class EventLog:
    """Append-only, in-order log of :class:`Event` records."""

    def __init__(self):
        self._events = []
        self._lock = threading.Lock()

    def emit(self, kind, /, **attributes):
        """Append one event; returns it.

        ``kind`` is positional-only, so an attribute may be named
        ``kind`` too (``durable_corruption`` carries one).
        """
        with self._lock:
            event = Event(kind, len(self._events), attributes)
            self._events.append(event)
        return event

    def events(self, kind=None):
        """All events, optionally restricted to one kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def count(self, kind=None):
        if kind is None:
            return len(self._events)
        return sum(1 for event in self._events if event.kind == kind)

    def kinds(self):
        """``{kind: count}`` over the whole log."""
        out = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def as_dicts(self):
        return [event.as_dict() for event in self._events]

    def describe(self, kind=None):
        return "\n".join(event.describe() for event in self.events(kind))

    def __len__(self):
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __repr__(self):
        return "EventLog(%d events)" % (len(self._events),)


class NullEventLog(EventLog):
    """An always-empty log: :meth:`emit` records nothing."""

    def emit(self, kind, /, **attributes):
        return None

    def __repr__(self):
        return "NullEventLog()"


#: Shared no-op log for unwired components (safe: it never holds events).
NULL_EVENTS = NullEventLog()
