"""Spans around the calls into graphseq's modules, and the per-layer metrics.

The tracer wraps module attributes from outside the program: it replaces a
function by one that records a span (name, start, end, parent, thread) and,
where the returned object carries the work done, a few counts.  Spans stay in
memory until the round ends.  ``layer_metrics`` turns one round's spans into
the per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

MIB = 2**20

def _layer_counts(args, kwargs, layer) -> dict:
    cells = words = nbytes = 0
    for band in getattr(layer, "bands", {}).values():
        arr = getattr(band, "limbs", None)
        shape = getattr(arr, "shape", ())
        if shape:
            cells += shape[0]
            words += shape[0] * (shape[1] if len(shape) > 1 else 1)
            nbytes += arr.nbytes
    return {"cells": cells, "limb_words": words, "bytes": nbytes}


def _estimate_attrs(args, kwargs, est) -> dict:
    return {"n": est.n, "kind": est.kind, "lower": float(est.lower),
            "upper": float(est.upper)}


def _first_arg(args, kwargs, result) -> dict:
    return {"n": args[0]}


# (module, attribute path, span name, counts taken from the call)
TARGETS = (
    ("engine", "advance", "engine.advance", _layer_counts),
    ("engine", "_carry_normalize", "engine.carry", None),
    ("engine", "Checkpoint.save", "engine.ckpt_save", None),
    ("engine", "Checkpoint.load", "engine.ckpt_load", None),
    ("engine", "extend_counts", "engine.extend", None),
    ("constants", "area_pmf", "constants.pmf", None),
    ("constants", "chain_hitting_iterative", "constants.solve",
     lambda a, k, r: {"sweeps": int(r.get("sweeps", 0))}),
    ("constants", "rho_bounds", "constants.bounds", _estimate_attrs),
    ("constants", "rho_amalgamated", "constants.amalgamated", None),
    ("constants", "richardson", "constants.richardson",
     lambda a, k, r: {"value": float(r)}),
    ("walklab", "persistence_mc", "walklab.mc", _first_arg),
    ("walklab", "_mc_shard", "walklab.shard", _first_arg),
)


class Tracer:
    """Records spans of wrapped calls; ``install`` must run on the main thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = []
        self._ids = itertools.count(1)  # next() is one C call, atomic under the GIL

    def install(self, package) -> None:
        self._local.stack = self._main_stack
        for module_name, path, name, counts in TARGETS:
            owner = getattr(package, module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            # a helper a later version removed leaves its metrics at 0
            if hasattr(owner, attr):
                self._wrap(owner, attr, name, counts)

    def _wrap(self, owner, attr, name, counts) -> None:
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = getattr(owner, attr)  # bound to the class for a classmethod
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            # a pool thread's span belongs to the call that started the pool
            parent = (stack or tracer._main_stack or [None])[-1]
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args[1:], **kwargs) if is_classmethod else fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent}
            if counts is not None:
                span.update(counts(args, kwargs, result))
            tracer.spans.append(span)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list, wall_s: float, ckpt_bytes: int, references: dict) -> dict:
    """Per-layer metrics of one traced round (trace.overhead_s is left out).

    ``references`` maps a walk kind ("lazy", "simple") to the literature
    value its Richardson extrapolation should reach, in the order in which
    ``cmd_constants`` extrapolates them.  A layer the round does not call
    reads 0.
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def dur(span):
        return span["end"] - span["start"]

    def total(name):
        return sum((dur(s) for s in by_name.get(name, ())), 0.0)

    advances = sorted(by_name.get("engine.advance", ()), key=lambda s: s["end"])
    solves = by_name.get("constants.solve", ())
    out = {
        "engine.advance_s": total("engine.advance"),
        "engine.advance_s.last": dur(advances[-1]) if advances else 0.0,
        "engine.advance_calls": len(advances),
        "engine.cells": sum(s.get("cells", 0) for s in advances),
        "engine.limb_words": sum(s.get("limb_words", 0) for s in advances),
        "engine.layer_mib.max": max((s.get("bytes", 0) for s in advances), default=0) / MIB,
        "engine.carry_s": total("engine.carry"),  # summed over pool threads
        "engine.ckpt_save_s": total("engine.ckpt_save"),
        "engine.ckpt_load_s": total("engine.ckpt_load"),
        "engine.extend_s": total("engine.extend"),
        "engine.ckpt_mib": ckpt_bytes / MIB,
        "constants.pmf_s": total("constants.pmf"),
        "constants.solve_s": total("constants.solve"),
        "constants.solve_s.max": max((dur(s) for s in solves), default=0.0),
        "constants.solves": len(solves),
        "constants.sweeps": sum(s.get("sweeps", 0) for s in solves),
    }
    for kind in references:
        bounds = [s for s in by_name.get("constants.bounds", ()) if s["kind"] == kind]
        largest = max(bounds, key=lambda s: s["n"], default=None)
        out[f"constants.bracket_width.{kind}"] = (
            largest["upper"] - largest["lower"] if largest else 0.0)
    extrapolations = sorted(by_name.get("constants.richardson", ()), key=lambda s: s["start"])
    for kind in references:
        out[f"constants.richardson_err.{kind}"] = 0.0
    for kind, span in zip(references, extrapolations):
        out[f"constants.richardson_err.{kind}"] = abs(span["value"] - references[kind])
    mc = by_name.get("walklab.mc", ())
    main_n = max((s["n"] for s in mc), default=None)
    shards = [dur(s) for s in by_name.get("walklab.shard", ()) if s["n"] == main_n]
    out.update({
        "walklab.mc_s": total("walklab.mc"),
        "walklab.shards": len(shards),
        "walklab.shard_s.max": max(shards, default=0.0),
        "walklab.shard_s.min": min(shards, default=0.0),
        "cli.self_s": wall_s - sum(dur(s) for s in spans if s["parent"] is None),
    })
    return out
