"""Structured event log for discrete engine decisions.

Spans time *phases*; events record *decisions*: a plan entering or
leaving the MEMO, a pipelined plan surviving only because of the
Section 3.3 pruning exemption, Algorithm Propagate assigning a depth to
a plan node, the robustness layer re-estimating or falling back.  Each
event has a ``kind``, a monotonically increasing ``sequence`` number
(total order within one log), and free-form attributes.

Well-known kinds emitted by the engine (see ``docs/observability.md``):

========================  ====================================================
kind                      emitted when
========================  ====================================================
``memo_insert``           a plan is retained in a MEMO entry
``plan_pruned``           a plan is rejected or evicted by the dominance test
``pipelining_exemption``  a pipelined plan survives a cheaper blocking plan
``propagate_depth``       Algorithm Propagate assigns a depth to a plan node
``recovery``              a guarded run re-estimates or falls back
========================  ====================================================
"""

MEMO_INSERT = "memo_insert"
PLAN_PRUNED = "plan_pruned"
PIPELINING_EXEMPTION = "pipelining_exemption"
PROPAGATE_DEPTH = "propagate_depth"
RECOVERY = "recovery"


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

    def emit(self, kind, **attributes):
        """Append one event; returns it."""
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
