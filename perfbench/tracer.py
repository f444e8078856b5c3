"""Span tracer that wraps biheun's public functions from outside the package.

Each wrapped call records a span ``[name, start_ns, end_ns, parent, op]`` in
memory; ``parent`` is the index of the enclosing span (-1 for the root) and
``op`` the id the runner set before the call. A wrapped name is rebound in
every biheun module namespace that holds it (``from .heun import
ode_residual`` in ``quantize`` is a separate binding) and inside module-level
tuples and dicts such as ``verify.ALL_CRITERIA``; otherwise calls through
those bindings would bypass the wrapper and count as zero. Names missing
from the package are listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("cli", "quantize", "heun", "model", "oracle", "verify")

TARGETS = {
    "cli": ("main",),
    "quantize": (
        "solve_family",
        "constraint_polynomial",
        "solve_b_roots",
        "closed_form_n0",
        "closed_form_n1",
        "wavefunction",
        "normalize",
    ),
    "heun": ("coefficient_sequence", "ode_residual"),
    "model": ("turning_points",),
    "oracle": ("fd_eigensolve", "fd_eigenvalues_richardson", "match_energy"),
    "verify": (
        "run_acceptance",
        *(f"criterion_{i}" for i in range(1, 9)),
        "power_matching_coefficients",
        "termination_residual",
        "relative_ode_residual_sup",
    ),
}


def _count_solve_family(counts, args, kwargs, result):
    n = kwargs["n"] if "n" in kwargs else args[0]
    counts["solutions"] += len(result)
    counts["roots_expected"] += n + 1


def _count_fd_eigensolve(counts, args, kwargs, result):
    counts["grid_points"] += result.grid.points
    counts["eigenpairs"] += len(result.energies)


def _count_match_energy(counts, args, kwargs, result):
    counts["matched" if result is not None else "match_failures"] += 1


# Work counters read from a wrapped call's arguments and result.
COUNTERS = {
    "quantize.solve_family": _count_solve_family,
    "oracle.fd_eigensolve": _count_fd_eigensolve,
    "oracle.match_energy": _count_match_energy,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys(
            ("solutions", "roots_expected", "grid_points", "eigenpairs",
             "matched", "match_failures"), 0)
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "biheun" or key.startswith("biheun."))]
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"biheun.{layer}")
            for attr in names:
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{attr}")
                    continue
                self._rebind(namespaces, original, self.wrap(f"{layer}.{attr}", original))

    def _rebind(self, namespaces, original, wrapped) -> None:
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    new = wrapped
                elif isinstance(value, tuple) and any(v is original for v in value):
                    new = tuple(wrapped if v is original else v for v in value)
                elif isinstance(value, dict) and any(v is original for v in value.values()):
                    new = {k: wrapped if v is original else v for k, v in value.items()}
                else:
                    continue
                self._restore.append((ns, key, value))
                setattr(ns, key, new)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._restore):
            setattr(ns, key, value)
        self._restore.clear()

    def self_times(self) -> list[int]:
        """Per span: duration minus the time its child spans cover, in ns."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, covered)]


def span_cost_ns() -> float:
    """Measured cost of one traced call of a no-op, over the untraced call."""
    def noop():
        return None

    calls = 20000
    traced = Tracer().wrap("calibrate.noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
