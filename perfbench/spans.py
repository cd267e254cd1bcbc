"""Outside-in span recorder for the traced run.

The library is not edited: `Tracer.install` replaces every public function
defined in a layer module, and every public method of a class defined there,
with a timing wrapper, in every `basicsets` module namespace that refers to
it.  A stack gives each span its self time (duration minus the time of the
spans it caused).  Spans are folded into per-function totals as they close
and stay in memory until the run reads them, so memory does not grow with
the number of calls.

Probes add computed work counts at the same boundaries: cells handed to an
elimination, eliminations, fast-route verdicts, and oracle calls made while
a `search` span is open.  A probe whose function no longer exists is
skipped, and the metrics it feeds are reported absent.
"""

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "core", "decide", "ratlin", "graphs", "search")


def _rref_cells(tracer, args, result):
    m = args[0]
    tracer.counts["ratlin.eliminations"] += 1
    tracer.counts["ratlin.cells"] += m.nrows * m.ncols


def _bareiss_cells(tracer, args, result):
    rows, ncols = args[0], args[1]
    tracer.counts["ratlin.eliminations"] += 1
    tracer.counts["ratlin.cells"] += len(rows) * ncols


def _fast_verdict(tracer, args, result):
    tracer.counts["graphs.fast_attempts"] += 1
    kind = getattr(getattr(result, "kind", None), "value", None)
    if kind != "inapplicable":
        tracer.counts["graphs.fast_decided"] += 1


def _oracle_call(tracer, args, result):
    if any(key.startswith("search.") for key, _ in tracer.stack):
        tracer.counts["search.oracle_calls"] += 1


# Traced functions that also feed a count.
SPAN_PROBES = {"ratlin.rref": _rref_cells, "graphs.fast_is_basic": _fast_verdict,
               "decide.is_basic": _oracle_call}
# Private functions wrapped for a count only; their time stays with the caller.
COUNT_PROBES = {"ratlin._integer_rank": _bareiss_cells}
ELIMINATIONS = {"ratlin.rref", "ratlin._integer_rank"}

RATIOS = {"ratlin.elims_per_op", "graphs.decided_ratio", "search.hit_ratio",
          "search.minimize_per_row", "trace.overhead_ratio"}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric in RATIOS else "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [key, child_ns] per open span
        self.totals: dict[str, list[int]] = {}  # key -> [calls, self_ns, total_ns]
        self.counts: Counter = Counter()
        self.probed: set[str] = set()
        self.layers: list[str] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for record in self.totals.values():
            record[:] = [0, 0, 0]
        self.counts.clear()

    def _span(self, key: str, fn, probe=None):
        stack, active = self.stack, self._active
        rec = self.totals.setdefault(key, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0]
            stack.append(frame)
            active[key] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                active[key] -= 1
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                if not active[key]:
                    rec[2] += elapsed
                if parent is not None:
                    parent[1] += elapsed
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapper

    def _counter(self, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            probe(self, args, result)
            return result

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "basicsets" or name.startswith("basicsets.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap the public surface of every layer module."""
        for layer in LAYERS:
            module = sys.modules.get(f"basicsets.{layer}")
            if module is None:
                continue
            self.layers.append(layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    probe = SPAN_PROBES.get(key)
                    if probe is not None:
                        self.probed.add(key)
                    self._replace_everywhere(obj, self._span(key, obj, probe))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for key, probe in COUNT_PROBES.items():
            layer, _, name = key.partition(".")
            original = getattr(sys.modules.get(f"basicsets.{layer}"), name, None)
            if inspect.isfunction(original):
                self.probed.add(key)
                self._replace_everywhere(original, self._counter(original, probe))

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                wrapped = self._span(key, attr)
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._span(key, attr.__func__))
            else:
                continue
            self._undo.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def layer_totals(self, layer: str) -> tuple[int, int]:
        """(calls, self_ns) summed over every traced function of the layer."""
        calls = self_ns = 0
        for key, (n, s, _) in self.totals.items():
            if key.split(".", 1)[0] == layer:
                calls += n
                self_ns += s
        return calls, self_ns

    def pass_metrics(self, ops: int, rows: int) -> dict:
        """Per-layer metrics of one pass since the last reset.

        `ops` is the number of CLI operations in the pass and `rows` the
        survey rows it printed.  A metric is None when the function it names
        does not exist.
        """
        totals, counts = self.totals, self.counts

        def calls(key):
            return totals[key][0] if key in totals else None

        def seconds(key, index):  # index 1: self time, 2: total time
            return totals[key][index] / 1e9 if key in totals else None

        out = {}
        for layer in LAYERS:
            layer_calls, self_ns = self.layer_totals(layer)
            present = layer in self.layers
            out[f"{layer}.self_s"] = self_ns / 1e9 if present else None
            out[f"{layer}.calls"] = layer_calls if present else None
        for key in ("core.canonicalize", "decide.slice_matrix", "decide.peel", "ratlin.rank",
                    "ratlin.rref", "ratlin.solve", "graphs.fast_is_basic"):
            out[f"{key}.self_s"] = seconds(key, 1)
        out["ratlin.transpose.self_s"] = seconds("ratlin.RatMatrix.transpose", 1)
        out["ratlin.kernel_basis.calls"] = calls("ratlin.kernel_basis")
        for key in ("search.is_minimal_nonbasic", "search.minimize_certificate"):
            out[f"{key}.total_s"] = seconds(key, 2)

        # A partial count would mislead: report it only when every probe exists.
        eliminations = counts["ratlin.eliminations"] if ELIMINATIONS <= self.probed else None
        out["ratlin.cells"] = None if eliminations is None else counts["ratlin.cells"]
        out["ratlin.elims_per_op"] = None if eliminations is None else _ratio(eliminations, ops)
        out["graphs.decided_ratio"] = (
            None if "graphs.fast_is_basic" not in totals
            else _ratio(counts["graphs.fast_decided"], counts["graphs.fast_attempts"]))
        oracle = counts["search.oracle_calls"] if "decide.is_basic" in self.probed else None
        minimize = calls("search.minimize_certificate")
        out["search.oracle_calls"] = oracle
        out["search.rows"] = rows
        out["search.hit_ratio"] = None if oracle is None else _ratio(rows, oracle)
        out["search.minimize_per_row"] = None if minimize is None else _ratio(minimize, rows)
        return out
