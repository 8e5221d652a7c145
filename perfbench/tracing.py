"""Spans around the calls into each layer of the package, recorded from
the benchmark's side.

A :class:`Tracer` replaces, for the length of a ``with`` block, every
module attribute through which package code (or the benchmark) looks up a
traced function, and puts the original objects back on exit.  Each call
through a wrapper records one span: label, start, end and the span that
was open on the same thread when it began.  Spans stay in memory;
:meth:`Tracer.layer_metrics` reduces them to the per-layer figures and
:meth:`Tracer.dump` writes them out once the run has ended.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# the closed-form evaluators with a row of their own, and the ones split
# further by SIC mode
ANALYTIC_FNS = ("outage_r", "outage_t", "ergodic_rate_r", "ergodic_rate_t")
MODE_SPLIT_FNS = ("outage_r", "ergodic_rate_r")
MODES = ("psic", "ipsic")


@dataclass
class Span:
    label: str
    start: float
    end: float = math.nan
    parent: int | None = None
    # extra facts recorded at the boundary: argument size, trials, workers,
    # CPU time, SIC mode, the call's signature and result
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _modules(package) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__
                                  or name.startswith(package.__name__ + "."))]


def traced_functions(package) -> dict:
    """Map each traced function object to its span label."""
    numerics = package.numerics
    targets = {numerics.reg_lower_gamma: "numerics.reg_lower_gamma",
               package.model.gamma_fit: "model.gamma_fit",
               package.montecarlo.simulate: "montecarlo.simulate",
               package.cli.main: "cli.main",
               package.cli.validate: "cli.validate",
               package.svgplot.write_line_plot: "svgplot.write_line_plot"}
    # every quadrature-rule constructor, whatever family a later version
    # uses, is grouped under numerics.rules
    for name, obj in vars(numerics).items():
        if name.startswith("gauss_") and callable(obj):
            targets[obj] = f"numerics.rules.{name}"
    for name in ANALYTIC_FNS:
        targets[getattr(package.analytic, name)] = f"analytic.{name}"
    for name in package.asymptotic.__all__:
        obj = getattr(package.asymptotic, name)
        if inspect.isfunction(obj):
            targets[obj] = f"asymptotic.{name}"
    return targets


def cache_counts(rules) -> tuple[int, int]:
    """Summed (hits, misses) of the rule constructors' lru caches."""
    hits = misses = 0
    for fn in rules:
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


class Tracer:
    """Context manager that installs span-recording wrappers.

    ``signature`` maps (label, args, kwargs) to a hashable call key, or
    None; calls with a key keep it and their result in the span so that
    accuracy can be set beside time.
    """

    def __init__(self, package, run_id: str, signature=None):
        self.package = package
        self.run_id = run_id
        self.signature = signature
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._rules: list = []
        self.cache_before = (0, 0)
        self.cache_after = (0, 0)

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        targets = traced_functions(self.package)
        self._rules = [fn for fn, label in targets.items()
                       if label.startswith("numerics.rules.")]
        self.cache_before = cache_counts(self._rules)
        wrappers = {id(fn): self._wrap(fn, label) for fn, label in targets.items()}
        for module in _modules(self.package):
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self.cache_after = cache_counts(self._rules)
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, label: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(label, 0.0, parent=stack[-1] if stack else None)
            info = span.info
            if label == "numerics.reg_lower_gamma" and len(args) > 1:
                info["elems"] = _size(args[1])
            elif label == "montecarlo.simulate":
                info["trials"] = _trials(args, kwargs)
                info["workers"] = int(kwargs.get("workers", 1))
                info["cpu0"] = time.process_time()
            elif label in ("analytic.outage_r", "analytic.ergodic_rate_r") and len(args) > 1:
                info["mode"] = _mode(args[1])
            key = tracer.signature(label, args, kwargs) if tracer.signature else None
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if "cpu0" in info:
                    info["cpu_s"] = time.process_time() - info.pop("cpu0")
            if key is not None:
                info["key"] = key
                info["result"] = result
            return result

        return wrapper

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # -- reduction ------------------------------------------------------
    def layer_metrics(self, rel_err: dict[str, float] | None = None) -> dict[str, float]:
        """Per-layer calls, busy and self times, counts and ratios."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration

        def self_time(i: int) -> float:
            return spans[i].duration - child_time[i]

        def has_ancestor(i: int, prefix: str) -> bool:
            p = spans[i].parent
            while p is not None:
                if spans[p].label.startswith(prefix):
                    return True
                p = spans[p].parent
            return False

        def select(prefix: str, mode: str | None = None) -> list[int]:
            """Outermost spans under the label prefix (nested spans of the
            same group are inside their parent's busy time already)."""
            return [i for i, s in enumerate(spans)
                    if (s.label == prefix or s.label.startswith(prefix + "."))
                    and (mode is None or s.info.get("mode") == mode)
                    and not has_ancestor(i, prefix)]

        out: dict[str, float] = {}

        def busy(ids):
            return math.fsum(spans[i].duration for i in ids)

        rlg = select("numerics.reg_lower_gamma")
        elems = sum(spans[i].info.get("elems", 0) for i in rlg)
        out["numerics.reg_lower_gamma.calls"] = len(rlg)
        out["numerics.reg_lower_gamma.busy_s"] = busy(rlg)
        out["numerics.reg_lower_gamma.elems"] = elems
        out["numerics.reg_lower_gamma.ns_per_elem"] = (
            busy(rlg) * 1e9 / elems if elems else 0.0)

        rules = select("numerics.rules")
        hits = self.cache_after[0] - self.cache_before[0]
        misses = self.cache_after[1] - self.cache_before[1]
        out["numerics.rules.calls"] = len(rules)
        out["numerics.rules.busy_s"] = busy(rules)
        out["numerics.rules.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

        fits = select("model.gamma_fit")
        out["model.gamma_fit.calls"] = len(fits)
        out["model.gamma_fit.busy_s"] = busy(fits)

        rel_err = rel_err or {}
        for fn in ANALYTIC_FNS:
            rows = [(f"analytic.{fn}", None)]
            if fn in MODE_SPLIT_FNS:
                rows += [(f"analytic.{fn}.{m}", m) for m in MODES]
            for row, mode in rows:
                ids = select(f"analytic.{fn}", mode)
                out[f"{row}.calls"] = len(ids)
                out[f"{row}.busy_s"] = busy(ids)
                out[f"{row}.self_s"] = math.fsum(self_time(i) for i in ids)
                out[f"{row}.max_rel_err"] = rel_err.get(row, 0.0)

        asy = select("asymptotic")
        out["asymptotic.calls"] = len(asy)
        out["asymptotic.busy_s"] = busy(asy)
        out["asymptotic.ergodic_asym_r_ipsic.busy_s"] = busy(
            select("asymptotic.ergodic_asym_r_ipsic"))
        out["asymptotic.fit_order.calls"] = len(select("asymptotic.fit_order"))

        sims = select("montecarlo.simulate")
        sim_busy = busy(sims)
        trials = sum(spans[i].info.get("trials", 0) for i in sims)
        cpu = math.fsum(spans[i].info.get("cpu_s", 0.0) for i in sims)
        worker_time = math.fsum(spans[i].duration * spans[i].info.get("workers", 1)
                                for i in sims)
        durations = sorted(spans[i].duration for i in sims)
        out["montecarlo.simulate.calls"] = len(sims)
        out["montecarlo.simulate.busy_s"] = sim_busy
        out["montecarlo.simulate.trials"] = trials
        out["montecarlo.simulate.trials_per_s"] = trials / sim_busy if sim_busy else 0.0
        out["montecarlo.simulate.cpu_s"] = cpu
        out["montecarlo.simulate.parallel_eff"] = cpu / worker_time if worker_time else 0.0
        out["montecarlo.simulate.ms_p50"] = 1e3 * percentile(durations, 50) if durations else 0.0
        out["montecarlo.simulate.ms_max"] = 1e3 * durations[-1] if durations else 0.0

        mains = select("cli.main")
        out["cli.main.self_s"] = math.fsum(self_time(i) for i in mains)
        out["cli.validate.self_s"] = math.fsum(
            self_time(i) for i in select("cli.validate"))

        plots = select("svgplot.write_line_plot")
        out["svgplot.write_line_plot.calls"] = len(plots)
        out["svgplot.write_line_plot.busy_s"] = busy(plots)
        out["trace.spans"] = len(spans)
        return out

    def keyed_results(self):
        """(label, mode, key, result) of every span that kept its call key."""
        for s in self.spans:
            if "key" in s.info:
                yield s.label, s.info.get("mode"), s.info["key"], s.info["result"]

    def dump(self, path: Path) -> None:
        rows = [{"run": self.run_id, "id": i, "name": s.label, "start": s.start,
                 "end": s.end, "parent": s.parent,
                 **{k: v for k, v in s.info.items() if k not in ("key", "result")}}
                for i, s in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    n = len(sorted_values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _trials(args, kwargs) -> int:
    if kwargs.get("trials") is not None:
        return int(kwargs["trials"])
    if len(args) > 3 and args[3] is not None:
        return int(args[3])
    return int(args[0].mc_trials)


def _mode(mode) -> str | None:
    value = getattr(mode, "value", None)
    return value.lower() if isinstance(value, str) else None
