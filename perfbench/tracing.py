"""Spans around the public functions of each braidrep module, recorded
from outside the program.

Each function is wrapped at the name its caller looks it up by, so that
a call made through that name opens a span.  Spans are kept in memory
and reduced to per-layer self time and call counts at the end.  Tracing
is installed only around traced jobs; untraced jobs run the program as
it is.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute path, layer) for every wrapped name
WRAPPED = [
    ("braidrep.cli", "bigelow_beta", "braids.parse"),
    ("braidrep.braids", "BraidWord.parse", "braids.parse"),
    ("braidrep.cli", "phi_pure", "gn3.phi"),
    ("braidrep.cli", "phi_word", "gn3.phi"),
    ("braidrep.gn3", "phi_word", "gn3.phi"),
    ("braidrep.cli", "numeric_rep_of_word", "matrixrep.fold"),
    ("braidrep.matrixrep", "PolyMatrix.specialize", "matrixrep.specialize"),
    ("braidrep.cli", "rep_of_word", "matrixrep.symbolic"),
    ("braidrep.matrixrep", "rep_of_word", "matrixrep.symbolic"),
    ("braidrep.cli", "burau_reduced", "matrixrep.burau"),
    ("braidrep.cli", "burau_unreduced", "matrixrep.burau"),
    ("braidrep.matrixrep", "burau_unreduced", "matrixrep.burau"),
    ("braidrep.cli", "check_relations", "matrixrep.check"),
    ("braidrep.cli", "check_braid_relations", "matrixrep.check"),
    ("braidrep.cli", "load_trajectories", "collinearity.load"),
    ("braidrep.cli", "sigma_motion", "collinearity.load"),
    ("braidrep.collinearity", "sigma_motion", "collinearity.load"),
    ("braidrep.cli", "detect_events", "collinearity.detect"),
    ("braidrep.collinearity", "detect_events", "collinearity.detect"),
    ("braidrep.cli", "calibrate_against_phi", "collinearity.calibrate"),
]

ROOT_LAYER = "cli"


class Tracer:
    def __init__(self):
        self.spans = []      # [layer, start, end, parent index, outer, counts, job]
        self.jobs = 0
        self.missing = []
        self._open = []      # raw spans of the current job: args and result kept
        self._stack = []
        self._patches = []
        for module, path, layer in WRAPPED:
            owner = importlib.import_module(module)
            *owners, name = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            if name not in vars(owner):
                self.missing.append(f"{module}.{path}")
                continue
            self._patches.append((owner, name, vars(owner)[name], layer))

    def _wrap(self, layer, fn):
        spans, stack = self._open, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans[index] = (layer, start, perf_counter(), parent, args, result)
                stack.pop()

        return traced

    def run(self, main, argv):
        """Call main(argv) with every wrapped name patched, as one job."""
        for owner, name, original, layer in self._patches:
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(layer, original.__func__))
            else:
                wrapped = self._wrap(layer, original)
            setattr(owner, name, wrapped)
        try:
            return self._wrap(ROOT_LAYER, main)(argv)
        finally:
            for owner, name, original, _ in self._patches:
                setattr(owner, name, original)
            self._close_job()

    def _close_job(self):
        """Keep times and counts; drop the arguments and results."""
        base = len(self.spans)
        raw = self._open
        for layer, start, end, parent, args, result in raw:
            counts = {}
            outer = parent < 0 or raw[parent][0] != layer
            if outer:
                counts = _counts(layer, args, result)
                layer = counts.pop("layer", layer)
            self.spans.append([layer, start, end, parent + base if parent >= 0 else -1,
                               outer, counts, self.jobs])
        self._open.clear()
        self.jobs += 1


def _counts(layer, args, result):
    """Size counters read from a span's arguments and result through the
    public interface: lengths of braid words and phi words."""
    try:
        if layer == "braids.parse" and result is not None:
            return {"letters": len(result)}
        if layer == "gn3.phi" and result is not None:
            word = getattr(result, "word", result)
            return {"phi_letters_in": len(args[0]), "phi_letters_out": len(word)}
        if layer == "matrixrep.fold":
            assignment = args[1]
            unit = all(abs(v) == 1 for v in assignment.values())
            return {"layer": "matrixrep.fold_unit" if unit else "matrixrep.fold_rational",
                    "fold_letters": len(args[0])}
    except (TypeError, AttributeError, IndexError) as exc:
        print(f"tracing: no counts for {layer}: {exc}", file=sys.stderr)
    return {}


def layer_totals(spans):
    """Per layer: self ms (span time minus the time of its child spans),
    calls (spans not nested in a span of the same layer) and summed counts."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for index, (layer, start, end, _, outer, counts, _) in enumerate(spans):
        entry = totals.setdefault(layer, {"self_ms": 0.0, "calls": 0})
        entry["self_ms"] += (end - start - child_time[index]) * 1000.0
        entry["calls"] += outer
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals
