"""Span tracing around the public functions of anick's modules.

The tracer replaces each public function of the layer modules, in every
anick module namespace that holds it (the package imports with
`from .x import f`, so `anick.resolution.sparse_rank` and
`anick.cli.verify_resolution` are separate bindings), and the listed
`AnickResolution` methods on the class.  Each call records a span: name,
start, end, parent span and job.  Spans stay in memory until the run ends.

A span's self time is its duration minus that of its child spans.  Helpers
that run up to ~10^5 times per job are not wrapped, so their cost lands in
their callers' self time: `find_subword` in noncommutative and the
divisibility helpers in commutative.  `algebra` is not a layer, so
polynomial arithmetic and formatting count toward the caller as well.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("presentation", "commutative", "noncommutative", "chains",
          "resolution", "hilbert", "linalg", "cli")

UNWRAPPED = {"noncommutative.find_subword", "commutative.divides",
             "commutative.quotient", "commutative.exp_lcm"}

# AnickResolution.__init__ builds the differentials; split and apply_d are
# the recursion it runs.
METHODS = {"__init__": "resolution.AnickResolution",
           "apply_d": "resolution.apply_d",
           "split": "resolution.split"}

# Spans whose basis changes while they run; normal forms inside them are
# counted as completion work.
COMPLETION = {"noncommutative.nc_buchberger", "noncommutative.nc_reduce_basis"}


# What a span records besides its times, for the spans that record more.
EXTRAS = {
    "noncommutative.find_obstructions": lambda args, result: len(result),
    "noncommutative.nc_normal_form": lambda args, result: not result,
    "noncommutative.nc_buchberger": lambda args, result: len(result.basis),
    "chains.enumerate_chains": lambda args, result: sum(
        len(chains) for level, chains in result.levels.items() if level >= 1),
    "linalg.sparse_rank": lambda args, result: (len(args[0]), result),
}


class Tracer:
    """Installs span-recording wrappers; spans[i] = (name, start, end,
    parent index or -1, job, extra)."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extract = EXTRAS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, start, clock(), parent, self.job, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            extra = extract(args, result) if extract else None
            spans[sid] = (name, start, end, parent, self.job, extra)
            return result

        return traced

    def install(self):
        layers = {name: importlib.import_module(f"anick.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in layers.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self._wrap(name, obj)
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "anick" or name.startswith("anick.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        cls = layers["resolution"].AnickResolution
        for attr, name in METHODS.items():
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def dump(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, job, extra) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, job, extra]))
                fh.write("\n")


def self_times(spans, scale=None):
    """Self time of every span, in span order; with scale, each multiplied
    by scale[job] of its job."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    if scale is not None:
        own = [t * scale[span[4]] for t, span in zip(own, spans)]
    return own


def _context(spans, sid, targets):
    """The name of the nearest enclosing span that is in targets, or None."""
    parent = spans[sid][3]
    while parent >= 0:
        name = spans[parent][0]
        if name in targets or name.split(".")[0] in targets:
            return name
        parent = spans[parent][3]
    return None


def layer_metrics(spans, passes, scale):
    """Per-layer totals over the traced spans, divided by the pass count.
    Self times are multiplied by scale[job] of their job."""
    own = self_times(spans, scale)
    calls, selfs = {}, {}
    for sid, span in enumerate(spans):
        name = span[0]
        layer = name.split(".")[0]
        for key in (name, layer):
            calls[key] = calls.get(key, 0) + 1
            selfs[key] = selfs.get(key, 0.0) + own[sid]

    m = {}

    def put(key, value):
        m[key] = value / passes

    for name in ("noncommutative.find_obstructions", "noncommutative.nc_s_polynomial",
                 "chains.enumerate_chains", "resolution.split", "resolution.apply_d",
                 "commutative.comm_normal_form", "presentation"):
        put(f"{name}.calls", calls.get(name, 0))
    for name in ("noncommutative.find_obstructions", "noncommutative.nc_buchberger",
                 "noncommutative.nc_reduce_basis", "noncommutative.count_normal_words",
                 "noncommutative.normal_words", "chains.enumerate_chains",
                 "resolution.AnickResolution", "resolution.split", "resolution.apply_d",
                 "resolution.verify_resolution", "resolution.tor_dimensions",
                 "resolution.is_minimal", "hilbert.hilbert_from_normal_words",
                 "hilbert.hilbert_from_chains", "hilbert.rational_form",
                 "commutative.comm_buchberger", "commutative.comm_reduce_basis") + LAYERS:
        put(f"{name}.self_s", selfs.get(name, 0.0))

    returned = produced = 0
    bases = []
    nf = {"in_completion": [0, 0.0], "in_resolution": [0, 0.0], "in_other": [0, 0.0]}
    nf_zero = 0
    rank = {"in_verify": [0, 0.0, 0], "in_tor": [0, 0.0, 0]}
    rank_total = rows_total = 0
    for sid, (name, _, _, _, _, extra) in enumerate(spans):
        if extra is None:
            continue
        if name == "noncommutative.find_obstructions":
            returned += extra
        elif name == "noncommutative.nc_buchberger":
            bases.append(extra)
        elif name == "chains.enumerate_chains":
            produced += extra
        elif name == "noncommutative.nc_normal_form":
            ctx = _context(spans, sid, COMPLETION | {"resolution"})
            where = ("in_other" if ctx is None else
                     "in_completion" if ctx in COMPLETION else "in_resolution")
            nf[where][0] += 1
            nf[where][1] += own[sid]
            nf_zero += extra
        elif name == "linalg.sparse_rank":
            ctx = _context(spans, sid, {"resolution.verify_resolution",
                                        "resolution.tor_dimensions"})
            nrows, r = extra
            rows_total += nrows
            rank_total += r
            if ctx is not None:
                slot = rank["in_verify" if ctx.endswith("verify_resolution") else "in_tor"]
                slot[0] += 1
                slot[1] += own[sid]
                slot[2] += nrows
    put("noncommutative.find_obstructions.returned", returned)
    for where, (n, t) in nf.items():
        put(f"noncommutative.nc_normal_form.{where}.calls", n)
        put(f"noncommutative.nc_normal_form.{where}.self_s", t)
    nf_calls = sum(n for n, _ in nf.values())
    m["noncommutative.nc_normal_form.zero_ratio"] = nf_zero / nf_calls if nf_calls else 0.0
    m["noncommutative.basis_size"] = sum(bases) / len(bases) if bases else 0.0
    put("chains.produced", produced)
    for where, (n, t, r) in rank.items():
        put(f"linalg.sparse_rank.{where}.calls", n)
        put(f"linalg.sparse_rank.{where}.self_s", t)
        put(f"linalg.sparse_rank.{where}.rows", r)
    m["linalg.sparse_rank.rank_ratio"] = rank_total / rows_total if rows_total else 0.0
    return m


def top_self_times(spans):
    """Total self time per function span name, largest first."""
    own = self_times(spans)
    totals = {}
    for sid, span in enumerate(spans):
        totals[span[0]] = totals.get(span[0], 0.0) + own[sid]
    return sorted(totals.items(), key=lambda kv: -kv[1])


def job_self_sums(spans):
    """Sum of span self times per job."""
    own = self_times(spans)
    out = {}
    for sid, span in enumerate(spans):
        out[span[4]] = out.get(span[4], 0.0) + own[sid]
    return out
