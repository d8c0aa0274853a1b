"""Fault injection for the operator tree.

Robustness claims need adversarial tests: this module wraps operators
with :class:`FaultyOperator`, which raises configured faults from
``open()``, ``next()``, or ``close()``; a :class:`FaultPlan` picks the
wrap points by operator name (or predicate) so whole executor trees
can be made hostile with :func:`inject_faults`.

Faults come in two flavours:

* **permanent** -- an :class:`~repro.common.errors.ExecutionError`
  raised on every faulted call from the trigger point on; the query is
  lost and the only guarantee the engine owes is a clean unwind (every
  opened operator closed -- see ``Operator.open`` / ``Operator.close``).
* **transient** -- a
  :class:`~repro.common.errors.TransientFaultError` raised a bounded
  number of times; a :class:`RetryingOperator` placed above the flaky
  subtree absorbs these with exponential backoff, modelling a scan over
  a flaky medium.

Faults fire *before* the wrapped call, so an injected ``next()`` fault
never swallows a tuple -- retried pulls see the exact stream an
unfaulted run would.
"""

import time

from repro.common.errors import ExecutionError, TransientFaultError
from repro.observability.metrics import NULL_METRICS
from repro.operators.base import Operator

#: Operator lifecycle methods that can be faulted.
FAULT_EVENTS = ("open", "next", "close")


class FaultSpec:
    """One injected fault.

    Parameters
    ----------
    target:
        Operator name (string, exact match) or a predicate
        ``operator -> bool`` choosing where the fault is installed.
    on:
        Which lifecycle call fails: ``"open"``, ``"next"`` or
        ``"close"``.
    at:
        1-based call index at which the fault triggers (``at=3`` with
        ``on="next"`` fails the third ``next()``).
    times:
        For transient faults: how many consecutive calls fail before
        the fault clears.  Permanent faults ignore this and fail every
        call from ``at`` on.
    transient:
        Raise :class:`TransientFaultError` (retryable) instead of a
        permanent :class:`ExecutionError`.
    message:
        Optional error-message override.
    """

    def __init__(self, target, on="next", at=1, times=1, transient=False,
                 message=None):
        if on not in FAULT_EVENTS:
            raise ExecutionError("unknown fault event %r" % (on,))
        if at < 1:
            raise ExecutionError("fault trigger 'at' must be >= 1")
        if times < 1:
            raise ExecutionError("fault 'times' must be >= 1")
        self.target = target
        self.on = on
        self.at = at
        self.times = times
        self.transient = transient
        self.message = message

    def matches(self, operator):
        """True when this fault should be installed on ``operator``."""
        if callable(self.target):
            return bool(self.target(operator))
        return operator.name == self.target

    def fires_at(self, call_number):
        """True when ``call_number`` triggers this fault."""
        if self.transient:
            return self.at <= call_number < self.at + self.times
        return call_number >= self.at

    def maybe_raise(self, call_number, operator_name):
        """Raise the configured fault if ``call_number`` triggers it."""
        if not self.fires_at(call_number):
            return
        message = self.message or (
            "injected %s%s fault in %s() call %d of %s"
            % ("transient " if self.transient else "",
               "" if self.transient else "permanent",
               self.on, call_number, operator_name)
        )
        if self.transient:
            raise TransientFaultError(message)
        raise ExecutionError(message)

    def __repr__(self):
        return "FaultSpec(on=%s, at=%d%s)" % (
            self.on, self.at,
            ", transient x%d" % (self.times,) if self.transient else "",
        )


class FaultPlan:
    """A set of :class:`FaultSpec` to install over an operator tree."""

    def __init__(self, specs=()):
        self.specs = list(specs)

    def add(self, spec):
        self.specs.append(spec)
        return self

    def for_operator(self, operator):
        """Specs targeting ``operator`` (empty list = leave unwrapped)."""
        return [spec for spec in self.specs if spec.matches(operator)]

    def __len__(self):
        return len(self.specs)

    def __repr__(self):
        return "FaultPlan(%d specs)" % (len(self.specs),)


class FaultyOperator(Operator):
    """Transparent wrapper that injects faults around one child.

    Passes rows through unchanged; each lifecycle call first fires any
    matching fault (see :meth:`FaultSpec.maybe_raise`), then delegates.
    Call counters persist across re-opens, so ``at`` indexes the Nth
    call over the operator's whole lifetime (re-opens matter for
    nested-loops inners).

    Checkpoint-transparent: the wrapper's own call counters are *not*
    part of a checkpoint, so an in-place resume replays pulls against
    advancing counters (a bounded transient fault window is eventually
    cleared) and a snapshot restores into a clean rebuild of the plan.
    """

    checkpoint_transparent = True

    def __init__(self, child, specs, name=None, metrics=None):
        super().__init__(children=(child,),
                         name=name or "Faulty(%s)" % (child.name,))
        self.specs = list(specs)
        self.calls = {event: 0 for event in FAULT_EVENTS}
        self.metrics = NULL_METRICS if metrics is None else metrics

    @property
    def schema(self):
        return self.children[0].schema

    def _fire(self, event):
        self.calls[event] += 1
        count = self.calls[event]
        for spec in self.specs:
            if spec.on == event:
                if spec.fires_at(count):
                    self.metrics.counter(
                        "robustness_faults_injected_total").inc(
                        kind="transient" if spec.transient else "permanent",
                        operator=self.children[0].name)
                spec.maybe_raise(count, self.name)

    def _open(self):
        self._fire("open")

    def _next(self):
        self._fire("next")
        return self._pull(0)

    def _close(self):
        self._fire("close")

    def describe(self):
        return "Faulty(%s)" % (", ".join(repr(s) for s in self.specs),)


class RetryingOperator(Operator):
    """Retry transient child faults with exponential backoff.

    Wraps a flaky subtree (typically a scan); a
    :class:`TransientFaultError` from the child's ``open()`` or
    ``next()`` is retried up to ``max_retries`` times per call, sleeping
    ``backoff * 2**attempt`` seconds between attempts.  Permanent
    :class:`ExecutionError` faults propagate immediately.

    Because injected faults fire before the underlying call, a retried
    pull re-requests the same tuple -- nothing is skipped or duplicated.
    ``retries`` counts the total transient faults absorbed (for tests
    and reports).

    Checkpoint-transparent like :class:`FaultyOperator`: retry
    bookkeeping never enters a checkpoint.
    """

    checkpoint_transparent = True

    def __init__(self, child, max_retries=3, backoff=0.0, sleep=time.sleep,
                 name=None, metrics=None):
        if max_retries < 0:
            raise ExecutionError("max_retries must be >= 0")
        if backoff < 0:
            raise ExecutionError("backoff must be >= 0")
        super().__init__(children=(child,),
                         name=name or "Retry(%s)" % (child.name,))
        self.max_retries = max_retries
        self.backoff = backoff
        self._sleep = sleep
        self.retries = 0
        self.metrics = NULL_METRICS if metrics is None else metrics

    @property
    def schema(self):
        return self.children[0].schema

    def _attempt(self, action):
        attempt = 0
        while True:
            try:
                result = action()
            except TransientFaultError:
                if attempt >= self.max_retries:
                    raise
                if self.backoff:
                    self._sleep(self.backoff * (2 ** attempt))
                attempt += 1
                self.retries += 1
                self.metrics.counter("robustness_retries_total").inc(
                    outcome="attempted", operator=self.children[0].name)
                continue
            if attempt:
                self.metrics.counter("robustness_retries_total").inc(
                    outcome="absorbed", operator=self.children[0].name)
            return result

    def open(self):
        # A transient fault during the subtree's open left it fully
        # closed (Operator.open unwinds partial opens), so the whole
        # open is safely re-attempted.
        return self._attempt(lambda: Operator.open(self))

    def _next(self):
        return self._attempt(lambda: self._pull(0))

    def describe(self):
        return "Retry(max=%d, backoff=%gs)" % (
            self.max_retries, self.backoff,
        )


def inject_faults(root, fault_plan, metrics=None):
    """Wrap every operator of ``root``'s tree matched by ``fault_plan``.

    Rewires ``children`` tuples in place and returns the (possibly
    wrapped) new root.  Wrapping is transparent to parents -- they keep
    pulling through :meth:`Operator._pull`, which follows ``children``
    -- and to checkpoints (see ``Operator.checkpoint_transparent``).
    ``metrics`` optionally counts fired faults into
    ``robustness_faults_injected_total``.
    """
    def rebuild(operator):
        operator.children = tuple(
            rebuild(child) for child in operator.children
        )
        specs = fault_plan.for_operator(operator)
        if specs:
            return FaultyOperator(operator, specs, metrics=metrics)
        return operator

    return rebuild(root)
