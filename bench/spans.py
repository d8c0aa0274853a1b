"""Span recording for the traced run, kept in the benchmark's files.

A span is ``(id, name, start_ns, end_ns, parent, op, phase)``.  The
name's prefix up to the first dot is the layer (a module under
``src/repro``), spans of one operation share its ``op`` number, and
``phase`` says which part of the traced run produced them (``setup``,
``round`` or a ``probe.*``).  Spans live in memory until the run ends.

The program's layers are timed from outside, around calls into their
public functions; nothing under ``src/`` records these spans.  Calls
the program makes internally (checkpoint encoding, snapshot writes,
``fsync``) are timed by replacing the public attribute with a wrapper
for the duration of the traced run (:meth:`Tracer.wrap`).
"""

import threading
from time import perf_counter_ns


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    """Records nothing; the untraced run times set-up through it."""

    phase = None

    def span(self, name):
        return _NULL_SPAN

    def operation(self, name="op"):
        return _NULL_SPAN


_NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("record", "stack")

    def __init__(self, record, stack):
        self.record = record
        self.stack = stack

    def __enter__(self):
        self.stack.append(self.record[0])
        self.record[2] = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[3] = perf_counter_ns()
        self.stack.pop()
        return False


class Tracer:
    """In-memory span recorder, safe to use from the server's threads.

    Each thread nests its own spans.  A span opened on a thread with no
    open span of its own (an instalment in the scheduler's worker
    thread) is caused by whatever the main thread is waiting in, so it
    takes the main thread's innermost open span as its parent.
    """

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._op = 0
        self._local = threading.local()
        self._main = self._stack()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main and stack is not self._main:
            parent = self._main[-1]
        else:
            parent = None
        with self._lock:
            record = [len(self.spans), name, 0, 0, parent, self._op,
                      self.phase]
            self.spans.append(record)
        return _Span(record, stack)

    def operation(self, name="op"):
        """Root span of one benchmark operation (a fresh ``op`` id)."""
        self._op += 1
        return self.span(name)

    def wrap(self, owner, attribute, name, sizes=None):
        """Time every call of ``owner.attribute`` as span ``name``.

        Returns a zero-argument function restoring the original.  With
        ``sizes`` (a list) the length of each returned value is
        appended to it -- the bytes of an encoded snapshot.
        """
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name):
                value = original(*args, **kwargs)
            if sizes is not None:
                sizes.append(len(value))
            return value

        setattr(owner, attribute, traced)
        return lambda: setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def select(self, phase):
        return [span for span in self.spans if span[6] == phase]

    def as_json(self):
        return {
            "columns": ["id", "name", "start_ns", "end_ns", "parent",
                        "op", "phase"],
            "spans": self.spans,
        }


def duration_ms(span):
    return (span[3] - span[2]) / 1e6


def total_ms(spans, name):
    """Summed duration of the spans called ``name``."""
    return sum(duration_ms(span) for span in spans if span[1] == name)


def count(spans, name):
    return sum(1 for span in spans if span[1] == name)


def self_times_ms(spans):
    """``{span id: self time}``: duration minus its children's."""
    own = {span[0]: duration_ms(span) for span in spans}
    for span in spans:
        if span[4] in own:
            own[span[4]] -= duration_ms(span)
    return own


def layer_shares(spans):
    """Each layer's share of the operations' time, by self time.

    The root ``op`` spans belong to the ``bench`` layer: their self
    time is the benchmark's own glue between the layer calls.
    """
    own = self_times_ms(spans)
    total = sum(duration_ms(span) for span in spans if span[4] is None)
    layers = {}
    for span in spans:
        layer = "bench" if span[4] is None else span[1].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own[span[0]]
    if total <= 0:
        return {}
    return {layer: value / total for layer, value in sorted(layers.items())}
