"""In-memory span recorder that wraps eisopt's layer entry points from outside.

The tracer never edits the package: it rebinds the module attributes that
callers look up at call time (``eisopt.design.fisher_contributions``,
``numpy.linalg.eigvalsh``, ...) to thin wrappers that record one span per
call, then restores the originals.  A span is a list

    [name, start, end, parent, op, note, error]

where ``parent`` is the index of the enclosing span (-1 at top level),
``op`` is the operation id the benchmark set before the call, ``note`` is
a per-layer value read from the call (points evaluated, fit iterations,
climb status, ...) and ``error`` is true when the call raised.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import math
from time import perf_counter

NAME, START, END, PARENT, OP, NOTE, ERROR = range(7)


def _fisher_points(args, kwargs, result):
    return int(result.shape[0])


def _eval_points(args, kwargs, result):
    return int(result[0].size)


def _eigvalsh_matrices(args, kwargs, result):
    return math.prod(result.shape[:-1])


def _fit_note(args, kwargs, result):
    return (int(result.iterations), bool(result.converged))


def _climb_status(args, kwargs, result):
    return result[1]


def _design_iterations(args, kwargs, result):
    return len(result.steps) - 1


# (module, attribute, span name, note) for every binding through which one
# layer is entered from another or from the benchmark.  A function imported
# into several modules is wrapped under each name that callers use.
LAYER_BINDINGS = (
    ("eisopt.design", "run_design", "design.run_design", _design_iterations),
    ("eisopt.design", "adjust_frequency", "design.adjust_frequency", _climb_status),
    ("eisopt.design", "fisher_contributions", "information.fisher_contributions", _fisher_points),
    ("eisopt.information", "fisher_contributions", "information.fisher_contributions", _fisher_points),
    ("eisopt.design", "fisher", "information.fisher", None),
    ("eisopt.information", "fisher", "information.fisher", None),
    ("eisopt.information", "crlb", "information.crlb", None),
    ("eisopt.design", "ellipsoid_log_volume", "information.ellipsoid_log_volume", None),
    ("eisopt.information", "ellipsoid_log_volume", "information.ellipsoid_log_volume", None),
    ("eisopt.information", "_impedance_and_gradient", "circuit.eval", _eval_points),
    ("eisopt.estimation", "_impedance_and_gradient", "circuit.eval", _eval_points),
    ("eisopt.measurement", "model_polar", "circuit.model_polar", None),
    ("eisopt.design", "initialize", "estimation.initialize", None),
    ("eisopt.estimation", "initialize", "estimation.initialize", None),
    ("eisopt.design", "fit_wcnls", "estimation.fit_wcnls", _fit_note),
    ("eisopt.estimation", "fit_wcnls", "estimation.fit_wcnls", _fit_note),
    ("eisopt.design", "measure_at", "measurement.measure_at", None),
    ("eisopt.measurement", "synthesize", "measurement.synthesize", None),
    ("eisopt.frequency", "reduce_ppd", "frequency.reduce_ppd", None),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", _eigvalsh_matrices),
)


class Tracer:
    """Records nested spans for every wrapped call while installed."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self.missing = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every layer entry point; bindings that no longer exist are
        listed in ``missing`` instead of failing the run."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, attr, name, note in LAYER_BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, note))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def write_csv_gz(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "op", "note", "error"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s[NAME], repr(s[START]), repr(s[END]), s[PARENT],
                                 s[OP], s[NOTE], int(s[ERROR])])


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_iteration"):
        return "calls/iter"
    return "s" if name.endswith((".s", "_s")) else "count"


def self_times(spans):
    """Each span's duration minus the part of it covered by its children.

    Spans are stored in start order, so one pass can merge each parent's
    child intervals as they arrive.
    """
    covered = [0.0] * len(spans)
    reach = [-math.inf] * len(spans)
    for s in spans:
        p = s[PARENT]
        if p < 0:
            continue
        lo = max(s[START], reach[p])
        if s[END] > lo:
            covered[p] += s[END] - lo
        reach[p] = max(reach[p], s[END])
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_metrics(spans):
    """Per-layer counts and times, keyed by the names BENCHMARK.json lists."""
    selfs = self_times(spans)
    agg = {}
    for s, own in zip(spans, selfs):
        a = agg.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        a["calls"] += 1
        a["s"] += s[END] - s[START]
        a["self_s"] += own
        a["errors"] += int(s[ERROR])

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    whatif = {"design.run_design": [0, 0.0], "design.adjust_frequency": [0, 0.0]}
    points = {"information.fisher_contributions": 0, "circuit.eval": 0,
              "linalg.eigvalsh": 0}
    iterations = stalled = fit_iterations = unconverged = 0
    for s in spans:
        name, note = s[NAME], s[NOTE]
        if note is None:
            continue
        if name in points:
            points[name] += note
        if name == "information.fisher_contributions" and note == 1 and s[PARENT] >= 0:
            bucket = whatif.get(spans[s[PARENT]][NAME])
            if bucket is not None:
                bucket[0] += 1
                bucket[1] += s[END] - s[START]
        elif name == "design.run_design":
            iterations += note
        elif name == "design.adjust_frequency":
            stalled += note == "stalled"
        elif name == "estimation.fit_wcnls":
            fit_iterations += note[0]
            unconverged += not note[1]

    scan, climb = whatif["design.run_design"], whatif["design.adjust_frequency"]
    return {
        "design.scan.whatif_calls": scan[0],
        "design.scan.s": scan[1],
        "design.climb.whatif_calls": climb[0],
        "design.climb.s": climb[1],
        "design.adjust_frequency.calls": get("design.adjust_frequency", "calls"),
        "design.adjust_frequency.s": get("design.adjust_frequency", "s"),
        "design.adjust_frequency.stalled": stalled,
        "design.iterations": iterations,
        "design.whatif_per_iteration": (scan[0] + climb[0]) / iterations if iterations else 0.0,
        "design.run_design.s": get("design.run_design", "s"),
        "design.run_design.self_s": get("design.run_design", "self_s"),
        "linalg.eigvalsh.calls": get("linalg.eigvalsh", "calls"),
        "linalg.eigvalsh.matrices": points["linalg.eigvalsh"],
        "linalg.eigvalsh.s": get("linalg.eigvalsh", "s"),
        "information.fisher_contributions.calls": get("information.fisher_contributions", "calls"),
        "information.fisher_contributions.points": points["information.fisher_contributions"],
        "information.fisher_contributions.s": get("information.fisher_contributions", "s"),
        "information.fisher_contributions.self_s": get("information.fisher_contributions", "self_s"),
        "information.fisher.calls": get("information.fisher", "calls"),
        "information.fisher.s": get("information.fisher", "s"),
        "information.crlb.calls": get("information.crlb", "calls"),
        "information.crlb.s": get("information.crlb", "s"),
        "information.crlb.errors": get("information.crlb", "errors"),
        "information.ellipsoid_log_volume.calls": get("information.ellipsoid_log_volume", "calls"),
        "information.ellipsoid_log_volume.s": get("information.ellipsoid_log_volume", "s"),
        "circuit.eval.calls": get("circuit.eval", "calls"),
        "circuit.eval.points": points["circuit.eval"],
        "circuit.eval.self_s": get("circuit.eval", "self_s"),
        "circuit.model_polar.calls": get("circuit.model_polar", "calls"),
        "circuit.model_polar.s": get("circuit.model_polar", "s"),
        "estimation.initialize.calls": get("estimation.initialize", "calls"),
        "estimation.initialize.s": get("estimation.initialize", "s"),
        "estimation.fit_wcnls.calls": get("estimation.fit_wcnls", "calls"),
        "estimation.fit_wcnls.s": get("estimation.fit_wcnls", "s"),
        "estimation.fit_wcnls.iterations": fit_iterations,
        "estimation.fit_wcnls.unconverged": unconverged,
        "estimation.fit_wcnls.errors": get("estimation.fit_wcnls", "errors"),
        "measurement.synthesize.calls": get("measurement.synthesize", "calls"),
        "measurement.synthesize.s": get("measurement.synthesize", "s"),
        "measurement.measure_at.calls": get("measurement.measure_at", "calls"),
        "measurement.measure_at.s": get("measurement.measure_at", "s"),
        "frequency.reduce_ppd.calls": get("frequency.reduce_ppd", "calls"),
        "frequency.reduce_ppd.s": get("frequency.reduce_ppd", "s"),
    }
