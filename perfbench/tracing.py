"""Spans and counters around the public functions of each cubepaths layer.

The tracer lives in the benchmark, not in the package: ``install`` replaces
each traced function at every module-level name it is bound to (``tables``,
``verify`` and ``cli`` import names directly, and ``count_n18`` /
``count_n26`` look kernels up as ``counting`` globals), and ``uninstall``
puts the originals back.  Spans (name, start, end, parent, op id) are kept
in flat arrays and written out once, after the run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _terms_n8(args, kwargs, result):
    i, j = args[0], args[1]
    return (i - j) // 2 + 1


def _terms_n18_max(args, kwargs, result):
    i, j, k = args[0].as_triple()
    half = (i - j - k) // 2
    return (half + 1) * (half + 2) // 2


def _one(args, kwargs, result):
    return 1


# (module, function, span label, counters).  Each counter is
# (name, f(args, kwargs, result) -> amount); a name without a dot is
# prefixed with the span label.  classify_n18 gets no span, only a count
# of each case it returns.
TRACED = (
    ("core", "canonicalize", "core.canonicalize", (("calls", _one),)),
    ("metrics", "distance", "metrics.distance", (("calls", _one),)),
    ("counting", "count_paths", "counting.count_paths", (
        ("calls", _one),
        ("counting.result_bits", lambda a, k, r: r.bit_length()),
    )),
    ("counting", "classify_n18", None, ()),
    ("counting", "count_n6", "counting.count_n6", (("counting.direct_sum_terms", _one),)),
    ("counting", "count_n8_2d", "counting.count_n8_2d", (
        ("calls", _one),
        ("counting.direct_sum_terms", _terms_n8),
    )),
    ("counting", "count_n18_maxcase", "counting.count_n18_maxcase", (
        ("calls", _one),
        ("counting.direct_sum_terms", _terms_n18_max),
    )),
    ("counting", "count_n18_halfcase", "counting.count_n18_halfcase", (
        ("calls", _one),
        ("counting.direct_sum_terms", _one),
    )),
    ("counting", "count_n26", "counting.count_n26", ()),
    ("tables", "shell_table", "tables.shell_table", (
        ("calls", _one),
        ("rows", lambda a, k, r: len(r.entries)),
    )),
    ("tables", "slice_table_2d", "tables.slice_table_2d", ()),
    ("tables", "symmetry_images", "tables.symmetry_images", (("calls", _one),)),
    ("tables", "to_csv", "tables.render", (("bytes", lambda a, k, r: len(r)),)),
    ("tables", "to_tsv", "tables.render", (("bytes", lambda a, k, r: len(r)),)),
    ("tables", "to_json", "tables.render", (("bytes", lambda a, k, r: len(r)),)),
    ("tables", "to_text", "tables.render", (("bytes", lambda a, k, r: len(r)),)),
    ("oracle", "oracle_count", "oracle.oracle_count", (("calls", _one),)),
    ("oracle", "iter_shortest_paths", "oracle.iter_shortest_paths", ()),
    ("verify", "verify_region", "verify.verify_region", (
        ("calls", _one),
        ("points", lambda a, k, r: r.checked),
    )),
    ("cli", "build_parser", "cli.build_parser", ()),
    ("cli", "run", "cli.run", ()),
)

GENERATORS = {"iter_shortest_paths": "oracle.iter_shortest_paths.paths"}

def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Bind `replacement` at every module-level name of the cubepaths
    package that holds `original`; returns what ``restore`` undoes."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "cubepaths" and not module_name.startswith("cubepaths."):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, name, original in reversed(undo):
        setattr(module, name, original)


class Tracer:
    """Records one span per call of a traced function (one per resume for
    a generator) and the counters listed in TRACED."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.label = array("H")
        self.op = array("l")
        self.op_id = -1
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        for module_name, func_name, label, counters in TRACED:
            module = sys.modules[f"cubepaths.{module_name}"]
            original = getattr(module, func_name)
            if func_name in GENERATORS:
                wrapper = self._wrap_generator(label, original, GENERATORS[func_name])
            elif label is None:
                wrapper = self._wrap_counting(original)
            else:
                wrapper = self._wrap(label, original, counters)
            self._undo += rebind(original, wrapper)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo.clear()

    def _label_index(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def _wrap(self, label, fn, counters):
        index = self._label_index(label)
        keyed = [(name if "." in name else f"{label}.{name}", f) for name, f in counters]
        start, end, parent, labels, ops = self.start, self.end, self.parent, self.label, self.op
        stack, tally = self._stack, self.counters

        def traced(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1])
            labels.append(index)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = perf_counter()
                stack.pop()
            for name, amount in keyed:
                tally[name] += amount(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_counting(self, fn):
        tally = self.counters

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally[f"counting.n18_case.{result.value}"] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    def _wrap_generator(self, label, fn, counter):
        index = self._label_index(label)
        start, end, parent, labels, ops = self.start, self.end, self.parent, self.label, self.op
        stack, tally = self._stack, self.counters

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = len(start)
                parent.append(stack[-1])
                labels.append(index)
                ops.append(self.op_id)
                end.append(0.0)
                stack.append(span)
                start.append(perf_counter())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end[span] = perf_counter()
                    stack.pop()
                tally[counter] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Each label's total span time minus the time of its child spans."""
        n = len(self.start)
        children = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for span in range(n):
            up = parent[span]
            if up >= 0:
                children[up] += end[span] - start[span]
        out: dict[str, float] = defaultdict(float)
        labels, label = self.labels, self.label
        for span in range(n):
            out[labels[label[span]]] += end[span] - start[span] - children[span]
        return dict(out)

    def write_spans(self, path: Path) -> None:
        """Write every span as a tab-separated line to a gzip file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        labels = self.labels
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            for span in range(len(self.start)):
                handle.write(
                    f"{labels[self.label[span]]}\t{self.start[span]:.9f}\t{self.end[span]:.9f}"
                    f"\t{self.parent[span]}\t{self.op[span]}\n"
                )
