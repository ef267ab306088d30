"""Outside-in tracing of gosextreme, done entirely from the benchmark's files.

`install` replaces the names through which the package modules call each
other with wrappers that record one span per call: name, parent span, start
and end (perf_counter_ns), plus a work count for a few spans (integrand
evaluations of a quadrature, slices of an index-law mixture, the sample size
of a GOS draw, the replications of a simulation loop).  Spans live in flat
arrays in memory and are written once, by `Recorder.dump`; `derive` turns
them into the per-module metrics.  No source file of the package is edited,
and a name that a refactor removes is simply not wrapped, so its metrics
read zero.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

# Package module -> layer (metric prefix).  params and selftest are left out:
# they do no measurable work in the workloads.
LAYERS = {
    "gosextreme.specfun": "specfun",
    "gosextreme._integrate": "integrate",
    "gosextreme.limitlaws": "limitlaws",
    "gosextreme.randomindex": "randomindex",
    "gosextreme.goscore": "goscore",
    "gosextreme.ranges": "ranges",
    "gosextreme.distributions": "distributions",
    "gosextreme.montecarlo": "montecarlo",
    "gosextreme.cli": "cli",
}

# Calls inside one module that the metrics need, on top of the cross-module
# names.  _integrate's own calls of integrate (the exponential-weight fallback
# and the per-segment rule) get a span name of their own.
INTRA_MODULE = {
    ("gosextreme.cli", "main"): "cli.main",
    ("gosextreme._integrate", "integrate"): "integrate.integrate_in_module",
    ("gosextreme.randomindex", "_mix"): "randomindex._mix",
    ("gosextreme.montecarlo", "simulate_value_pairs"): "montecarlo.simulate_value_pairs",
    ("gosextreme.montecarlo", "sample_uniform_gos"): "montecarlo.sample_uniform_gos",
    ("gosextreme.montecarlo", "analytic_limit_df"): "montecarlo.analytic_limit_df",
    ("gosextreme.ranges", "_limit_df"): "ranges._limit_df",
}

# (home module, function) -> the argument that gives the span's work count.
# An argument named "f" is a callable whose calls are counted.
WORK_ARGS = {
    ("gosextreme._integrate", "integrate"): "f",
    ("gosextreme.randomindex", "_mix"): "f",
    ("gosextreme.montecarlo", "simulate_value_pairs"): "replications",
    ("gosextreme.montecarlo", "sample_uniform_gos"): "size",
}


class Recorder:
    """Spans in flat arrays; span i's parent is the span open when it began."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("i")
        self.raised = array("q")
        self._open = [-1]

    def wrap(self, fn, span: str, work_arg: str | None):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        work, raised, open_spans, clock = self.work, self.raised, self._open, time.perf_counter_ns
        position = None
        if work_arg is not None:
            params = list(inspect.signature(fn).parameters)
            position = params.index(work_arg) if work_arg in params else None
        counted = work_arg == "f"

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            work.append(0)
            end.append(0)
            calls = None
            if position is not None:
                if counted:
                    calls = [0]
                    inner = args[position] if len(args) > position else kwargs[work_arg]

                    def f(*a):
                        calls[0] += 1
                        return inner(*a)

                    if len(args) > position:
                        args = args[:position] + (f,) + args[position + 1:]
                    else:
                        kwargs[work_arg] = f
                else:
                    value = args[position] if len(args) > position else kwargs.get(work_arg, 0)
                    work[idx] = int(value)
            open_spans.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                end[idx] = clock()
                open_spans.pop()
                if calls is not None:
                    work[idx] = calls[0]

        return wrapper

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int64),
        )


def install(recorder: Recorder, modules) -> list[tuple]:
    """Wrap the cross-module names and INTRA_MODULE; returns what `uninstall` needs."""
    undo = []

    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ not in LAYERS:
                continue
            home = fn.__module__
            span = INTRA_MODULE.get((mod.__name__, attr))
            if home != mod.__name__:
                span = f"{LAYERS[home]}.{fn.__name__}"
            if span is not None:
                work_arg = WORK_ARGS.get((home, fn.__name__))
                setattr(mod, attr, recorder.wrap(fn, span, work_arg))
                undo.append((mod, attr, fn))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)


# --- metrics ----------------------------------------------------------------


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def derive(path: str, passes: int) -> dict[str, float]:
    """Per-module metrics per traced pass (call percentiles per call)."""
    data = np.load(path)
    names = [str(nm) for nm in data["names"]]
    name_id, parent = data["name_id"].astype(np.int64), data["parent"]
    work = data["work"].astype(np.int64)
    dur = (data["end"] - data["start"]).astype(np.float64) * 1e-9
    n = dur.size
    has_parent = parent >= 0
    up = np.maximum(parent, 0)
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_s = dur - child[:n]

    layers = sorted(set(LAYERS.values()))
    name_layer = np.array([layers.index(nm.split(".", 1)[0]) for nm in names] or [0])
    layer = name_layer[name_id]
    parent_layer = np.where(has_parent, layer[up], -1)
    parent_id = np.where(has_parent, name_id[up], -1)
    ids = {nm: i for i, nm in enumerate(names)}

    def named(*spans):
        return np.isin(name_id, [ids[s] for s in spans if s in ids])

    def in_layer(lay):
        return layer == layers.index(lay)

    def entries(lay):
        return in_layer(lay) & (parent_layer != layers.index(lay))

    def child_of(span):
        return parent_id == ids.get(span, -2)

    # The layer that owns each quadrature: its nearest ancestor outside integrate.
    integrate = layers.index("integrate")
    owner = layer.copy()
    cursor = np.arange(n)
    pending = layer == integrate
    while pending.any():
        cursor = np.where(pending, parent[cursor], cursor)
        owner[pending & (cursor < 0)] = -1
        pending &= cursor >= 0
        found = pending & (layer[np.maximum(cursor, 0)] != integrate)
        owner[found] = layer[cursor[found]]
        pending &= ~found

    mixture_ids = [i for nm, i in ids.items() if nm.startswith("randomindex.mixture")]
    mixes = entries("randomindex") & (np.isin(name_id, mixture_ids) | named("randomindex._mix"))
    quad = named("integrate.integrate", "integrate.integrate_in_module")
    raised = np.zeros(n, dtype=bool)
    raised[data["raised"]] = True
    per = 1.0 / max(passes, 1)
    ri_calls = int(mixes.sum())
    gos_calls = int(entries("goscore").sum())

    def total(values, mask):
        return float(values[mask].sum()) * per

    return {
        "randomindex.calls": ri_calls * per,
        "randomindex.s": total(self_s, in_layer("randomindex")),
        "randomindex.slices_per_call":
            float(work[named("randomindex._mix")].sum()) / ri_calls if ri_calls else 0.0,
        "randomindex.call_ms_p50": _pct(dur[mixes] * 1e3, 50),
        "randomindex.call_ms_p90": _pct(dur[mixes] * 1e3, 90),
        "integrate.expw_calls": int(named("integrate.integrate_exp_weight").sum()) * per,
        "integrate.expw_fallbacks":
            int((named("integrate.integrate_in_module")
                 & child_of("integrate.integrate_exp_weight")).sum()) * per,
        "integrate.segment_calls": int(named("integrate.integrate_segments").sum()) * per,
        "integrate.calls": int(quad.sum()) * per,
        "integrate.evals": total(work, quad),
        "integrate.s": total(self_s, in_layer("integrate")),
        "integrate.errors": int((raised & in_layer("integrate")).sum()) * per,
        "specfun.calls": int(in_layer("specfun").sum()) * per,
        "specfun.s": total(self_s, in_layer("specfun")),
        "limitlaws.calls": int(entries("limitlaws").sum()) * per,
        "limitlaws.s": total(self_s, in_layer("limitlaws")),
        "goscore.calls": gos_calls * per,
        "goscore.s": total(self_s, in_layer("goscore")),
        "goscore.evals_per_call": float(work[quad & (owner == layers.index("goscore"))].sum())
        / gos_calls if gos_calls else 0.0,
        "ranges.calls": int(entries("ranges").sum()) * per,
        "ranges.s": total(self_s, in_layer("ranges")),
        "cli.calls": int(named("cli.main").sum()) * per,
        "cli.self_s": total(self_s, in_layer("cli")),
        "montecarlo.reps": total(work, named("montecarlo.simulate_value_pairs")),
        "montecarlo.loop_s": total(self_s, named("montecarlo.simulate_value_pairs")),
        "montecarlo.sample_s": total(dur, named("montecarlo.sample_uniform_gos")),
        "montecarlo.gos_values": total(work, named("montecarlo.sample_uniform_gos")),
        "montecarlo.tally_s":
            total(self_s, named("montecarlo.run_bivariate_sim", "ranges.run_statistic_sim")),
        "montecarlo.analytic_s": total(dur, named("montecarlo.analytic_limit_df"))
        + total(dur, named("ranges._limit_df") & child_of("ranges.run_statistic_sim")),
        "distributions.quantile_s": total(dur, named("distributions.quantile")),
        "distributions.norming_s": total(dur, named("distributions.norming_constants")),
    }
