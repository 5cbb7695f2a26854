"""Span recorder that wraps the package's public functions from outside.

Each traced function is replaced, at every module-global name it is bound
to inside the package (``chancap.cli.blahut_arimoto``, ``chancap.muroga.solve``
and so on), by a wrapper that records a span: operation id, name, start,
end, parent span and a few counts read off the return value.  Spans stay in
memory; ``restore`` puts the original functions back.
"""

import functools
import sys
import time

PACKAGE = "chancap"

#: layer -> public functions traced in it.  Missing names are skipped, so the
#: benchmark keeps running when a later version drops a function.
TRACED = {
    "cli": ("run", "read_channel_file", "ingest_matrix", "solve_channel", "emit_report"),
    "channel": ("check_channel", "binary_channel", "output_distribution"),
    "entropy": ("check_distribution", "xlogx_star"),
    "binary": ("binary_capacity", "binary_optimal_input", "binary_optimal_output"),
    "muroga": ("muroga_capacity", "feasible_input"),
    "linalg": ("solve", "inverse", "determinant"),
    "oracle": ("blahut_arimoto", "capacity_bounds", "grid_search_binary"),
}

#: span name -> counts read off the function's return value
_ATTRS = {
    "oracle.blahut_arimoto": lambda r: {
        "sweeps": int(r.iterations),
        "converged": bool(r.converged),
    },
    "muroga.muroga_capacity": lambda r: {"feasible": bool(r.feasible)},
}


class Tracer:
    """Collects spans; ``op`` is the id stamped on spans opened from now on."""

    def __init__(self):
        self.spans = []  # [op, name, start, end, parent index or -1, attrs]
        self.op = 0
        self._open = []
        self._patched = None

    def _wrap(self, name, fn):
        spans, stack, attrs_of = self.spans, self._open, _ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(result)
            return result

        return traced

    def _targets(self):
        """(module, global name, original, wrapper) for every binding to patch."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        targets = []
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    targets += [(mod, g, fn, wrapper) for g, v in vars(mod).items() if v is fn]
        return targets

    def install(self):
        """Patch every traced function at every package-global name bound to it."""
        if self._patched is None:
            self._patched = self._targets()
        for mod, gname, _, wrapper in self._patched:
            setattr(mod, gname, wrapper)

    def restore(self):
        for mod, gname, fn, _ in self._patched or ():
            setattr(mod, gname, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def _ms(seconds):
    return seconds * 1e3


def layer_metrics(spans, ops):
    """Per-layer totals over ``ops`` traced operations; spans as Tracer.spans.

    ``.ms`` is total busy time of the outermost spans of that name, ``.self_ms``
    subtracts the time covered by direct child spans, ``.calls`` counts spans.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    calls, busy, self_time = {}, {}, {}
    closed_calls = closed_busy = 0
    ba_sweeps = ba_max = ba_converged = feasible = 0
    for i, (_, name, t0, t1, parent, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        pname = spans[parent][1] if parent >= 0 else None
        if pname != name:
            busy[name] = busy.get(name, 0.0) + (t1 - t0)
        self_time[name] = self_time.get(name, 0.0) + (t1 - t0) - child_time[i]
        if name.startswith("binary.") and not (pname or "").startswith("binary."):
            closed_calls += 1
            closed_busy += t1 - t0
        attrs = attrs or {}
        if "sweeps" in attrs:
            ba_sweeps += attrs["sweeps"]
            ba_max = max(ba_max, attrs["sweeps"])
            ba_converged += attrs["converged"]
        feasible += attrs.get("feasible", 0)

    def c(name):
        return calls.get(name, 0)

    def ms(name):
        return _ms(busy.get(name, 0.0))

    def self_ms(name):
        return _ms(self_time.get(name, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "cli.run.calls": (c("cli.run"), "count"),
        "cli.run.self_ms": (self_ms("cli.run"), "ms"),
        "cli.read_channel_file.ms": (ms("cli.read_channel_file"), "ms"),
        "cli.ingest_matrix.ms": (ms("cli.ingest_matrix"), "ms"),
        "cli.solve_channel.self_ms": (self_ms("cli.solve_channel"), "ms"),
        "cli.emit_report.ms": (ms("cli.emit_report"), "ms"),
    }
    for name in ("channel.check_channel", "entropy.check_distribution", "entropy.xlogx_star"):
        out[name + ".calls"] = (c(name), "count")
        out[name + ".ms"] = (ms(name), "ms")
    out["binary.closed_form.calls"] = (closed_calls, "count")
    out["binary.closed_form.ms"] = (_ms(closed_busy), "ms")
    muroga = c("muroga.muroga_capacity")
    out["muroga.muroga_capacity.calls"] = (muroga, "count")
    out["muroga.muroga_capacity.self_ms"] = (self_ms("muroga.muroga_capacity"), "ms")
    out["muroga.calls_per_op"] = (ratio(muroga, ops), "ratio")
    out["muroga.feasible"] = (feasible, "count")
    out["muroga.feasible_ratio"] = (ratio(feasible, muroga), "ratio")
    for name in ("linalg.solve", "linalg.inverse", "linalg.determinant"):
        out[name + ".calls"] = (c(name), "count")
        out[name + ".ms"] = (ms(name), "ms")
    ba = c("oracle.blahut_arimoto")
    out["oracle.blahut_arimoto.calls"] = (ba, "count")
    out["oracle.blahut_arimoto.ms"] = (ms("oracle.blahut_arimoto"), "ms")
    out["oracle.ba.sweeps"] = (ba_sweeps, "count")
    out["oracle.ba.sweeps_max"] = (ba_max, "count")
    out["oracle.ba.us_per_sweep"] = (ratio(ms("oracle.blahut_arimoto") * 1e3, ba_sweeps), "us")
    out["oracle.ba.converged_ratio"] = (ratio(ba_converged, ba), "ratio")
    for name in ("oracle.capacity_bounds", "oracle.grid_search_binary"):
        out[name + ".calls"] = (c(name), "count")
        out[name + ".ms"] = (ms(name), "ms")
    return out


#: Ratios and the count each is taken over, for the printed summary.
RATIO_BASES = {
    "muroga.calls_per_op": "cli.run.calls",
    "muroga.feasible_ratio": "muroga.muroga_capacity.calls",
    "oracle.ba.us_per_sweep": "oracle.ba.sweeps",
    "oracle.ba.converged_ratio": "oracle.blahut_arimoto.calls",
}
