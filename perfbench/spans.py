"""Span tracing of alcc-lab's public functions, applied from outside.

Several modules import functions by name (``from .numeric import
least_squares``), so a call goes through the caller's own binding. The
tracer therefore replaces every module-level binding of a traced function,
and patches methods on their class. Spans are kept in memory as flat arrays
(name, parent, start, end) and reduced to per-function calls and self time
once the run is over; self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager

import numpy as np

PACKAGE = "alcc_lab"

# Public functions traced as layers, "<module>.<function>" or
# "<module>.<Class>.<method>". cli only parses arguments and is left out.
TRACED = (
    "harness.run_trial",
    "scenario.Scenario.digest",
    "scenario.Scenario.encoding",
    "codec.make_batch",
    "codec.encode_shares",
    "codec.lagrange_basis",
    "codec.reconstruct",
    "codec.relative_error",
    "threat.inject",
    "threat.complex_normal",
    "threat.plan_from_effective_base",
    "threat.design_strong_collusion",
    "threat.design_weak_collusion",
    "dft_code.build_code",
    "dft_code.syndrome",
    "dft_code.estimate_error_count",
    "dft_code.locator_polynomial",
    "dft_code.recover_error_values",
    "dft_code.correct_codeword",
    "localization.independent_localize",
    "localization.joint_localize",
    "numeric.least_squares",
    "numeric.numerical_rank",
    "numeric.poly_eval",
    "assignment.solve_assignment",
    "assignment.problem2_log_objective",
    "assignment.relative_error_baseline",
    "bounds.assignment_pair_log_bound",
    "selftest.run_exhaustive_decode_check",
)
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in TRACED))


@contextmanager
def patched(owner, attr: str, replacement):
    """Set ``owner.attr`` to ``replacement`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def _bindings(name: str):
    """(owner, attribute) pairs through which callers reach a traced function."""
    parts = name.split(".")
    module = sys.modules[f"{PACKAGE}.{parts[0]}"]
    if len(parts) == 3:  # a method: callers look it up on the class
        return [(getattr(module, parts[1]), parts[2])]
    target = getattr(module, parts[1])
    owners = [m for key, m in sorted(sys.modules.items())
              if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    return [(m, attr) for m in owners for attr, value in vars(m).items() if value is target]


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.names = list(TRACED)
        self._code = {name: i for i, name in enumerate(self.names)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self.counters: Counter = Counter()

    def _wrap(self, name: str, fn, observe):
        code = self._code[name]
        names, parents, starts, ends, open_ = (
            self._name, self._parent, self._start, self._end, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(code)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                open_.pop()
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    @contextmanager
    def installed(self, observers=None):
        """Wrap every binding of every traced function; restore on exit."""
        observers = observers or {}
        with ExitStack() as stack:
            for name in self.names:
                bindings = _bindings(name)
                original = getattr(*bindings[0])
                wrapper = self._wrap(name, original, observers.get(name))
                for owner, attr in bindings:
                    stack.enter_context(patched(owner, attr, wrapper))
            yield self

    def summary(self) -> dict:
        """Calls and self seconds per traced function, from the stored spans."""
        name = np.array(self._name, dtype=np.intp)
        parent = np.array(self._parent, dtype=np.intp)
        duration = np.array(self._end) - np.array(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=name.size)
        self_s = np.bincount(name, weights=duration - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

