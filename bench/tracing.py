"""Spans and counts at wxleak's layer boundaries, recorded from outside the package.

``Tracer.installed()`` replaces the public functions each layer exposes at
the names their callers look them up under, and restores them on exit.
Every call through a replaced name records a span ``(name, start, end,
parent index)`` in memory; the parent is the innermost open span. RK4
steps are counted without a span, since a span per step would cost more
than the step. Trajectories returned to the experiment layer are watched
with weak references, giving the peak number of model states held at once.
"""

from __future__ import annotations

import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import wxleak.assim as assim
import wxleak.experiment as experiment
import wxleak.model as model
import wxleak.osse as osse


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.live_states = 0
        self.peak_live_states = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, observe=None) -> None:
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def _hold_states(self, trajectory) -> None:
        held = len(trajectory.states)
        self.live_states += held
        self.peak_live_states = max(self.peak_live_states, self.live_states)
        weakref.finalize(trajectory, self._release_states, held)

    def _release_states(self, held: int) -> None:
        self.live_states -= held

    def _analysis_done(self, result) -> None:
        self.counts["analysis_result.iterations"] += result.iterations
        self.counts["assim.unconverged"] += not result.converged

    @contextmanager
    def installed(self):
        # Each name is replaced where its caller looks it up: the experiment
        # layer calls into model, assim, osse and leakage; the minimizer
        # calls cost and the operator; synthesis calls the scalar operator.
        self._span(experiment, "nature_run", "model.nature_run", self._hold_states)
        self._span(experiment, "integrate", "model.integrate", self._hold_states)
        self._span(experiment, "diagnostics", "model.diagnostics")
        self._span(experiment, "minimize", "assim.minimize", self._analysis_done)
        self._span(experiment, "build_problem", "osse.build_problem")
        self._span(experiment, "synthesize_observations", "osse.synthesize")
        self._span(experiment, "leakage_chain", "leakage.chain")
        self._span(experiment, "aci_leakage_fraction", "leakage.mask_integral")
        self._span(assim, "cost", "assim.cost")
        self._span(osse.RadianceOperator, "values", "osse.operator_values")
        self._span(osse.RadianceOperator, "jacobians", "osse.operator_jacobians")
        self._span(osse, "bias_corrected_forward", "forward.scalar")

        step, counts = model.step, self.counts

        def counted_step(*args, **kwargs):
            counts["model.steps"] += 1
            return step(*args, **kwargs)

        self._patch(model, "step", counted_step)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def totals(self, duration=lambda start, end: end - start):
        """Per span name: (calls, total seconds, self seconds), each span's
        length given by ``duration(start, end)``.

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are never counted twice.
        """
        lengths = [duration(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), length in zip(self.spans, lengths):
            if parent >= 0:
                child[parent] += length
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        for index, ((name, _, _, _), length) in enumerate(zip(self.spans, lengths)):
            calls[name] += 1
            total[name] += length
            self_s[name] += length - child[index]
        return calls, total, self_s

    def dump(self) -> dict:
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[ids[n], s, e, p] for n, s, e, p in self.spans],
        }
