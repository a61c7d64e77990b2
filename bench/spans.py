"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces every module-namespace copy of each target
function (``from .x import f`` makes one per importing module) and the
two target methods on their classes, so a call is recorded whichever
name it goes through.  Spans are kept in memory as
``(name, start_ns, end_ns, parent_index, op_id)``; ``uninstall`` puts
the originals back.  Nothing in the library is edited.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

PACKAGE = "weingarten_tubes"

# (module, attribute); "Class.method" targets are patched on the class
TARGETS = (
    ("polyalg", "substitute_tube"),
    ("polyalg", "gamma_at"),
    ("polyalg", "gamma_cleared"),
    ("polyalg", "divide_by_tube_factor"),
    ("radius", "isolate_positive_roots"),
    ("radius", "star_radius_set"),
    ("radius", "radius_set"),
    ("radius", "AlgebraicRadius.refined"),
    ("classify", "solve_SQ"),
    ("classify", "solve_SQ_principal"),
    ("classify", "QSDescription.contains"),
    ("cli", "parse_poly"),
    ("cli", "main"),
    ("geometry", "curvatures"),
    ("geometry", "frenet_frame"),
    ("geometry", "lorentz_cross"),
    ("geometry", "curvature_csv"),
)

LAYERS = ("polyalg", "radius", "classify", "cli", "geometry")

SPAN_NAMES = tuple(f"{module}.{attr.split('.')[-1]}" for module, attr in TARGETS)


def _count_substitute(counts: Counter, result) -> None:
    counts["zero_images"] += result.is_zero


def _count_divide(counts: Counter, result) -> None:
    counts["quotients"] += result is not None


def _count_isolate(counts: Counter, result) -> None:
    for rad in result:
        counts["radii_rational" if rad.exact_value is not None else "radii_irrational"] += 1


def _count_star_set(counts: Counter, result) -> None:
    for entry in result.entries:
        counts["star_set_entries"] += 1
        counts["stars"] += entry.star
        counts["rational_stars"] += entry.star and entry.radius.exact_value is not None


# what each span's return value adds to the counters
RESULT_HOOKS = {
    "polyalg.substitute_tube": _count_substitute,
    "polyalg.divide_by_tube_factor": _count_divide,
    "radius.isolate_positive_roots": _count_isolate,
    "radius.star_radius_set": _count_star_set,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(counts, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._undo.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def merge(self, spans: list, counts: dict, op: int) -> None:
        """Append spans recorded by another process for operation op."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op))
        self.counts.update(counts)


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def pass_summary(spans: list) -> tuple[Counter, Counter, Counter]:
    """(calls per name, self ns per name, calls per (op, name)) of one pass."""
    calls, self_ns, per_op = Counter(), Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        name, op = span[0], span[4]
        calls[name] += 1
        self_ns[name] += own
        per_op[(op, name)] += 1
    return calls, self_ns, per_op


def write_spans(path, spans: list) -> None:
    with open(path, "w") as handle:
        for name, start, end, parent, op in spans:
            handle.write(json.dumps([name, start, end, parent, op]) + "\n")
