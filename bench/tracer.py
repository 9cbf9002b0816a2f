"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install()` wraps every public function of the library's layer
modules and patches *every* module binding of it, not just the defining
module: `optimize` and `throughput` bind `specfun` names at import time,
while `detection` looks `expint_ei_scaled` up inside `_scaled_ei_gap`,
so patching one module alone would miss calls.  `uninstall()` puts the
original objects back.

Spans live in flat arrays (id = index, parent id, name, start, end and
an optional work amount) so that a traced optimizer round with a million
special-function calls stays a few tens of megabytes.  `write_json`
dumps them at the end of a round; `self_times` and `layer_summary`
reduce them to the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from array import array

PACKAGE = "covertrelay"
LAYER_MODULES = ("specfun", "channel", "detection", "throughput", "optimize", "report",
                 "validation", "cli")

# Public functions whose layer is finer than their module.  Every other
# public function of a layer module is grouped under "<module>.other".
GROUPS = {
    "specfun.expint_ei": "specfun",
    "specfun.expint_ei_scaled": "specfun",
    "specfun.ei_diff": "specfun",
    "specfun.upper_gamma": "specfun",
    "channel.tas_mrc_gain_cdf": "channel.gain_cdf",
    "channel.tas_mrc_gain_pdf": "channel.gain_cdf",
    "channel.sample_noise_power": "channel.sampler",
    "channel.sample_rayleigh_gain": "channel.sampler",
    "channel.sample_tas_mrc_gain": "channel.sampler",
    "detection.min_dep_slot": "detection.min_dep",
    "detection.min_dep_two_hop": "detection.min_dep",
    "detection.dep_slot_reference": "detection.reference",
    "detection.mc_dep_slot": "detection.mc",
    "detection.mc_dep_two_hop": "detection.mc",
    "throughput.outage_hop_single": "throughput.single",
    "throughput.throughput_single": "throughput.single",
    "throughput.outage_hop_multi_reference": "throughput.outage_multi",
    "throughput.outage_hop_multi_paper": "throughput.paper",
    "throughput.mc_outage_hop": "throughput.mc",
    "optimize.optimize_single": "optimize.single",
    "optimize.optimize_multi": "optimize.multi",
    "report.build_discrepancy_report": "report.build",
    "validation.run_validation": "validation.run",
    "cli.main": "cli.main",
}


def _size(size) -> float:
    if size is None:
        return 1.0
    if isinstance(size, tuple):
        return float(math.prod(size))
    return float(size)


# Work done by one call, read from its bound arguments: values drawn by a
# sampler, trials run by a Monte-Carlo estimator.
AMOUNTS = {
    "channel.sample_noise_power": lambda a: _size(a.get("size")),
    "channel.sample_rayleigh_gain": lambda a: _size(a.get("size")),
    "channel.sample_tas_mrc_gain": lambda a: _size(a.get("size")),
    "detection.mc_dep_slot": lambda a: float(a["n"]),
    "throughput.mc_outage_hop": lambda a: float(a["n"]),
}

# Argument tuple identifying one distinct piece of work (the same key the
# library's own outage cache uses).
KEYS = {
    "throughput.outage_hop_multi_reference": lambda a: (
        a["p"], a["rate"].t, a["params"].sigma_n2, a["params"].rho, a["n_t"], a["n_r"]
    ),
}


def group_of(name: str) -> str:
    """Layer group of a span name ("module.function" or a bench span)."""
    if name in GROUPS:
        return GROUPS[name]
    module = name.split(".", 1)[0]
    return f"{module}.other" if module in LAYER_MODULES else name


class Tracer:
    """Records one span per call of each wrapped function, in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.keys: dict[str, set] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, amount: float) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.amount.append(amount)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = self._open(self._name_id(name), math.nan)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        amount_of = AMOUNTS.get(qualname)
        key_of = KEYS.get(qualname)
        signature = inspect.signature(fn) if (amount_of or key_of) else None
        keys = self.keys.setdefault(qualname, set()) if key_of else None
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = math.nan
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if amount_of is not None:
                    amount = amount_of(bound)
                if key_of is not None:
                    keys.add(key_of(bound))
            sid = open_(name_id, amount)
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules at every binding."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for module in [m for n, m in sys.modules.items()
                       if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        """Restore every binding replaced by install()."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write_json(self, path: str) -> None:
        """Write every span as gzip-compressed JSON, one array per field.

        Span i has id i, parent id parent[i] (-1 for none), name
        names[name[i]], and start/end in integer nanoseconds after t0, a
        perf_counter reading in seconds (integers encode several times
        faster than floats, which matters at millions of spans).
        """
        t0 = self.start[0] if self.start else 0.0
        text = json.dumps({"names": self.names, "t0": t0, "parent": self.parent.tolist(),
                           "name": self.name.tolist(),
                           "start_ns": [round((t - t0) * 1e9) for t in self.start],
                           "end_ns": [round((t - t0) * 1e9) for t in self.end]})
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(text.encode())


class NullTracer:
    """Stand-in for untraced runs: the same span() calls, no recording."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield


def self_times(parent, start, end) -> array:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread's wrapper stack and close in a `finally`
    block, so a child lies inside its parent and siblings never overlap.
    """
    result = array("d", (e - s for s, e in zip(start, end)))
    for i, p in enumerate(parent):
        if p >= 0:
            result[p] -= end[i] - start[i]
    return result


def _has_ancestor(i: int, parent, name, target_ids: set) -> bool:
    p = parent[i]
    while p >= 0:
        if name[p] in target_ids:
            return True
        p = parent[p]
    return False


def layer_summary(tracer: Tracer) -> dict:
    """Per-group calls, self time and work, plus the optimizer counters.

    `calls` counts entries into a group from outside it, so a layer
    function calling a sibling counts once.  `amount` sums the work of
    the outermost span that carries one (a TAS/MRC draw counts its
    composite gains, not the branch gains it draws inside).
    """
    parent, name = tracer.parent, tracer.name
    groups = [group_of(n) for n in tracer.names]
    selfs = self_times(parent, tracer.start, tracer.end)
    out: dict[str, dict] = {}
    for i in range(len(selfs)):
        g = groups[name[i]]
        row = out.setdefault(g, {"calls": 0, "spans": 0, "self_s": 0.0, "amount": 0.0})
        row["spans"] += 1
        row["self_s"] += selfs[i]
        p = parent[i]
        outer = p < 0 or groups[name[p]] != g
        if outer:
            row["calls"] += 1
        amount = tracer.amount[i]
        if amount == amount and (outer or tracer.amount[p] != tracer.amount[p]):
            row["amount"] += amount
    for qualname, keys in tracer.keys.items():
        out.setdefault(group_of(qualname), {})["distinct"] = len(keys)

    ids = {n: i for i, n in enumerate(tracer.names)}
    single = {ids[n] for n in ("optimize.optimize_single",) if n in ids}
    multi = {ids[n] for n in ("optimize.optimize_multi",) if n in ids}
    evals = {ids[n] for n in ("detection.min_dep_slot", "throughput.outage_hop_single",
                              "throughput.throughput_single") if n in ids}
    outage_multi = ids.get("throughput.outage_hop_multi_reference")
    solve_evals = multi_outages = 0
    for i in range(len(selfs)):
        if name[i] in evals and single and _has_ancestor(i, parent, name, single):
            solve_evals += 1
        elif name[i] == outage_multi and multi and _has_ancestor(i, parent, name, multi):
            multi_outages += 1
    out["counters"] = {"single_solve_evals": solve_evals, "multi_outage_calls": multi_outages}
    return out
