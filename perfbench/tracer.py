"""Span tracer that times nctorus functions from outside the package.

`Tracer.install` replaces each target below with a timing wrapper.  The
package binds names with ``from .x import y``, so a patch of the defining
module alone would miss most calls: the wrapper is put in place of the
original in every loaded ``nctorus`` module that holds it.  Methods are
patched on their class.  `Tracer.uninstall` restores every original.

Each call records a span (name, start, end, parent, thread).  Every thread
keeps its own parent stack, so spans of the grid thread pool nest under
the runner span that started the pool, and a layer's self time (its span
minus the part of that interval its child spans cover) is never counted
twice.  Spans stay in memory until the caller writes them out.

`lattice` is not traced: its calls are cached-property reads that cost
less than a wrapper, so their time stays in the callers' self time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time

import numpy as np

# (module, attribute, span name).  "Class.method" patches the class; "*"
# stands for every name in the module's __all__.
TARGETS = (
    ("experiments", "run_property_suite", "experiments.runner"),
    ("experiments", "run_theorem_scan", "experiments.runner"),
    ("experiments", "run_potential_decay", "experiments.runner"),
    ("experiments", "run_factorization_check", "experiments.runner"),
    ("experiments", "run_schwartz_bound", "experiments.runner"),
    ("experiments", "_scan_one", "experiments.grid_point"),
    ("experiments", "_factor_one", "experiments.grid_point"),
    ("experiments", "_decay_one", "experiments.grid_point"),
    ("kernels", "random_kernel", "kernels.draw"),
    ("kernels", "kernel_matrix", "kernels.matrix"),
    ("kernels", "sobolev_lift", "kernels.lift"),
    ("kernels", "mixed_sobolev_norm", "kernels.lift"),
    ("kernels", "flip_adjoint", "kernels.adjoint"),
    ("kernels", "schwartz_coefficients", "kernels.schwartz"),
    ("operators", "OperatorMatrix.__matmul__", "operators.matmul"),
    ("multipliers", "multiplier_matrix", "multipliers.matrix"),
    ("schatten", "singular_values", "schatten.svd"),
    ("schatten", "schatten_norm", "schatten.norm"),
    ("schatten", "weak_norm", "schatten.norm"),
    ("schatten", "decay_exponent", "schatten.fit"),
    ("algebra", "twisted_convolve", "algebra.convolve"),
    ("algebra", "mult_matrix", "algebra.mult_matrix"),
    ("cocycle", "phase_pairs", "cocycle.phase"),
    ("cocycle", "phase_table", "cocycle.phase"),
    ("reference", "*", "reference.oracle"),
)

CLI_SPAN = "cli.main"
COUNT_SPAN = "trace.count"

# Per-layer metrics: name -> (unit, better).  Flops and bytes marked
# "computed" come from array shapes; they ignore caches and BLAS internals.
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.parallelism": ("ratio", "higher"),
    "experiments.grid_points": ("count", "lower"),
    "kernels.draw_s": ("s", "lower"),
    "kernels.draw_calls": ("count", "lower"),
    "kernels.matrix_s": ("s", "lower"),
    "kernels.lift_s": ("s", "lower"),
    "kernels.adjoint_s": ("s", "lower"),
    "kernels.schwartz_s": ("s", "lower"),
    "kernels.coeff_bytes": ("B-computed", "lower"),
    "operators.matmul_s": ("s", "lower"),
    "operators.matmul_calls": ("count", "lower"),
    "operators.matmul_flops": ("flop-computed", "lower"),
    "operators.diag_flop_frac": ("ratio", "lower"),
    "multipliers.matrix_s": ("s", "lower"),
    "multipliers.dense_bytes": ("B-computed", "lower"),
    "schatten.svd_s": ("s", "lower"),
    "schatten.svd_calls": ("count", "lower"),
    "schatten.svd_flops": ("flop-computed", "lower"),
    "schatten.diag_shortcut_frac": ("ratio", "higher"),
    "schatten.norm_s": ("s", "lower"),
    "schatten.fit_s": ("s", "lower"),
    "algebra.convolve_s": ("s", "lower"),
    "algebra.convolve_calls": ("count", "lower"),
    "algebra.mult_matrix_s": ("s", "lower"),
    "cocycle.phase_s": ("s", "lower"),
    "cocycle.phase_evals": ("count", "lower"),
    "reference.oracle_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _array_of(x) -> np.ndarray:
    """The dense payload of an OperatorMatrix, NCKernel or bare array."""
    for attr in ("entries", "coeffs"):
        if hasattr(x, attr):
            return np.asarray(getattr(x, attr))
    return np.asarray(x)


def _is_diagonal(a: np.ndarray) -> bool:
    if a.ndim == 1:
        return True
    return a.ndim == 2 and np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


def _returned_bytes(args, result) -> dict:
    if not hasattr(result, "coeffs") and not hasattr(result, "entries"):
        return {}
    return {"bytes": 16 * _array_of(result).size}


def _matmul_counts(args, result) -> dict:
    left, right = _array_of(args[0]), _array_of(args[1])
    flops = 8 * left.shape[0] ** 3
    diag = _is_diagonal(left) or _is_diagonal(right)
    return {"flops": flops, "diag_flops": flops if diag else 0}


def _svd_counts(args, result) -> dict:
    a = _array_of(args[0])
    if _is_diagonal(a):
        return {"shortcut": 1}
    # values-only SVD of an n x n complex matrix: 4 x (8/3) n^3 real flops
    return {"flops": 32 * a.shape[0] ** 3 / 3}


def _phase_counts(args, result) -> dict:
    return {"evals": int(np.size(result))}


COUNTERS = {
    "kernels.draw": _returned_bytes,
    "kernels.matrix": _returned_bytes,
    "kernels.lift": _returned_bytes,
    "kernels.adjoint": _returned_bytes,
    "multipliers.matrix": _returned_bytes,
    "operators.matmul": _matmul_counts,
    "schatten.svd": _svd_counts,
    "cocycle.phase": _phase_counts,
}


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "counts")

    def __init__(self, span_id, parent, name, thread, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.counts = None

    def row(self) -> list:
        return [self.id, self.parent, self.name, self.thread, self.start, self.end]


class Tracer:
    """Records spans of the traced nctorus functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list = []
        self._patches: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._main_stack and self._main_stack:
            # a pool worker's outermost span belongs to the span that is
            # waiting for the pool on the thread that installed the tracer
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), parent, name, threading.get_ident(), 0.0)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body of a with statement."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                # counting cost is the tracer's, kept out of the parent's self time
                cost = Span(next(tracer._ids), span.parent, COUNT_SPAN, span.thread, span.end)
                span.counts = counter(args, result)
                cost.end = time.perf_counter()
                tracer.spans.append(cost)
            return result

        return wrapper

    def install(self, package_name: str = "nctorus") -> None:
        """Patch every target in every loaded module of the package."""
        self._main_stack = self._stack()
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package_name or key.startswith(package_name + "."))
        ]
        for mod_name, attr, span_name in TARGETS:
            owner = sys.modules.get(f"{package_name}.{mod_name}")
            if owner is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if attr == "*":
                names = list(getattr(owner, "__all__", ()))
            else:
                names = [attr]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".", 1)
                    cls = getattr(owner, cls_name, None)
                    original = getattr(cls, meth, None) if cls is not None else None
                    if original is None:
                        self.missing.append(f"{mod_name}.{name}")
                        continue
                    self._patch(cls, meth, self._wrap(original, span_name))
                    continue
                original = getattr(owner, name, None)
                if not callable(original):
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                wrapper = self._wrap(original, span_name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


SPAN_COLUMNS = ("id", "parent", "name", "thread", "start", "end")


def nesting_violations(rows) -> int:
    """Number of span rows (SPAN_COLUMNS) that start before or end after
    their parent."""
    by_id = {row[0]: row for row in rows}
    bad = 0
    for _, parent_id, _, _, start, end in rows:
        parent = by_id.get(parent_id)
        if parent is not None and (start < parent[4] or end > parent[5]):
            bad += 1
    return bad


def layer_metrics(spans, out_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    own = self_times(spans)
    busy: dict = {}
    calls: dict = {}
    counts: dict = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + own[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in (s.counts or {}).items():
            tag = f"{s.name}.{key}"
            counts[tag] = counts.get(tag, 0) + value

    runners = {s.id: s for s in spans if s.name == "experiments.runner"}
    runner_wall = sum(s.end - s.start for s in runners.values())
    child_busy = sum(
        s.end - s.start for s in spans if s.parent in runners and s.name != COUNT_SPAN
    )

    def ratio(num, den):
        return num / den if den else 0.0

    matmul_flops = counts.get("operators.matmul.flops", 0)
    svd_calls = calls.get("schatten.svd", 0)
    return {
        "cli.self_s": busy.get(CLI_SPAN, 0.0),
        "cli.out_bytes": out_bytes,
        "experiments.self_s": busy.get("experiments.runner", 0.0)
        + busy.get("experiments.grid_point", 0.0),
        "experiments.parallelism": ratio(child_busy, runner_wall),
        "experiments.grid_points": calls.get("experiments.grid_point", 0),
        "kernels.draw_s": busy.get("kernels.draw", 0.0),
        "kernels.draw_calls": calls.get("kernels.draw", 0),
        "kernels.matrix_s": busy.get("kernels.matrix", 0.0),
        "kernels.lift_s": busy.get("kernels.lift", 0.0),
        "kernels.adjoint_s": busy.get("kernels.adjoint", 0.0),
        "kernels.schwartz_s": busy.get("kernels.schwartz", 0.0),
        "kernels.coeff_bytes": sum(
            counts.get(f"kernels.{k}.bytes", 0) for k in ("draw", "matrix", "lift", "adjoint")
        ),
        "operators.matmul_s": busy.get("operators.matmul", 0.0),
        "operators.matmul_calls": calls.get("operators.matmul", 0),
        "operators.matmul_flops": matmul_flops,
        "operators.diag_flop_frac": ratio(counts.get("operators.matmul.diag_flops", 0), matmul_flops),
        "multipliers.matrix_s": busy.get("multipliers.matrix", 0.0),
        "multipliers.dense_bytes": counts.get("multipliers.matrix.bytes", 0),
        "schatten.svd_s": busy.get("schatten.svd", 0.0),
        "schatten.svd_calls": svd_calls,
        "schatten.svd_flops": counts.get("schatten.svd.flops", 0),
        "schatten.diag_shortcut_frac": ratio(counts.get("schatten.svd.shortcut", 0), svd_calls),
        "schatten.norm_s": busy.get("schatten.norm", 0.0),
        "schatten.fit_s": busy.get("schatten.fit", 0.0),
        "algebra.convolve_s": busy.get("algebra.convolve", 0.0),
        "algebra.convolve_calls": calls.get("algebra.convolve", 0),
        "algebra.mult_matrix_s": busy.get("algebra.mult_matrix", 0.0),
        "cocycle.phase_s": busy.get("cocycle.phase", 0.0),
        "cocycle.phase_evals": counts.get("cocycle.phase.evals", 0),
        "reference.oracle_s": busy.get("reference.oracle", 0.0),
    }
