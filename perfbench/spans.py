"""Span tracer for the traced benchmark run, and per-layer aggregation.

``install`` wraps, inside the child process, every function exported by
``povdyn.__all__``, the ``RngStream`` methods and the extra entry points
listed in ``EXTRA``. A wrapper is put in every ``povdyn.*`` module dict
that holds the same function object, because ``cli`` and ``calibrate``
import names directly. Each call records one span (id, name, start, end,
parent id, work units) in memory; ``Tracer.dump`` writes them once at the
end. ``layer_metrics`` turns a span list into the per-layer metrics.

The tracer changes no argument or result, so a traced run must write the
same bytes as an untraced one; the benchmark checks that.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import types
from pathlib import Path

# Wrapped in addition to the functions in povdyn.__all__: the search hot
# path, the rate-free step, the calibration search loop (its
# bottom_share_of children are the gap evaluations) and the file readers
# and writers. A name that a refactor removes is reported as absent.
EXTRA = (
    "rgbm.bottom_share_of", "rgbm.step_components", "calibrate._search_tau",
    "dataio.read_series", "dataio.read_hcr_file", "dataio.read_panel",
    "dataio.write_series", "dataio.write_panel", "dataio.write_report_csv",
    "dataio.write_pooled_csv", "dataio.write_paths_csv",
    "dataio.write_json", "dataio.write_manifest", "cli.main",
)
METHODS = ("rng.RngStream.uniforms", "rng.RngStream.normals")


def _draws(args, kwargs, result) -> int:
    return int(getattr(result, "size", 0))


def _file_bytes(args, kwargs, result) -> int:
    """Bytes of the files a reader or writer touched (from file sizes)."""
    if isinstance(result, list) and all(isinstance(p, Path) for p in result):
        return sum(p.stat().st_size for p in result)
    for a in (*args, *kwargs.values()):
        if isinstance(a, (str, os.PathLike)):
            p = Path(a)
            if p.is_file():
                return p.stat().st_size
            if p.is_dir():  # read_panel: the panel files under the directory
                return sum(f.stat().st_size for f in p.glob("panel*"))
    return 0


def _units_for(name: str):
    if name == "rng.RngStream.normals":
        return _draws
    if name.startswith(("dataio.read_", "dataio.write_")):
        return _file_bytes
    return None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        units = _units_for(name)
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, name, t0, t1, parent,
                          units(args, kwargs, result) if units else 0))
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "absent": self.absent}),
                        encoding="utf-8")


def _povdyn_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "povdyn" or n.startswith("povdyn."))]


def _replace_everywhere(original, wrapper) -> None:
    for module in _povdyn_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in every povdyn module that holds them."""
    import povdyn

    targets: dict[str, types.FunctionType] = {}
    for public in povdyn.__all__:
        obj = getattr(povdyn, public)
        if isinstance(obj, types.FunctionType):
            short = obj.__module__.removeprefix("povdyn.")
            targets[f"{short}.{obj.__name__}"] = obj
    for name in EXTRA:
        module_name, _, attr = name.partition(".")
        module = sys.modules.get(f"povdyn.{module_name}")
        obj = getattr(module, attr, None) if module is not None else None
        if isinstance(obj, types.FunctionType):
            targets[name] = obj
        else:
            tracer.absent.append(name)
    for name, fn in targets.items():
        _replace_everywhere(fn, tracer.wrap(name, fn))

    for name in METHODS:
        module_name, cls_name, attr = name.split(".")
        cls = getattr(sys.modules.get(f"povdyn.{module_name}"), cls_name, None)
        fn = vars(cls).get(attr) if cls is not None else None
        if isinstance(fn, types.FunctionType):
            setattr(cls, attr, tracer.wrap(name, fn))
        else:
            tracer.absent.append(name)


# ---------------------------------------------------------------------------
# aggregation (parent process)

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, t0, t1, parent, _units in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent, _units in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


PER_LAYER = (
    ("rng.normals_s", "s"), ("rng.draws", "count"),
    ("rgbm.step_s", "s"), ("rgbm.step_calls", "count"),
    ("rgbm.step_components_s", "s"), ("rgbm.step_speedup_2t", "ratio"),
    ("rgbm.bottom_share_s", "s"), ("rgbm.bottom_share_calls", "count"),
    ("calibrate.gap_evals", "count"), ("calibrate.fit_series_s", "s"),
    ("calibrate.years_fitted", "count"),
    ("calibrate.replay_s", "s"), ("calibrate.replay_calls", "count"),
    ("poverty.classify_s", "s"), ("poverty.transition_s", "s"),
    ("poverty.persistence_s", "s"), ("poverty.pooled_s", "s"),
    ("poverty.bpl_gini_s", "s"), ("poverty.paths_s", "s"),
    ("poverty.probe_calls", "count"),
    ("dataio.read_s", "s"), ("dataio.read_bytes", "bytes"),
    ("dataio.write_s", "s"), ("dataio.write_bytes", "bytes"),
    ("cli.self_s", "s"), ("trace.overhead_s", "s"),
)
COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times and counts of one traced run.

    ``trace.overhead_s`` and ``rgbm.step_speedup_2t`` need other runs and
    are filled in by the caller.
    """
    self_t = self_times(spans)
    name_of = {s[0]: s[1] for s in spans}

    def spans_named(*names):
        return [s for s in spans if s[1] in names]

    def inclusive(*names):
        # outermost call of each name only, so recursion is not counted twice
        return sum(s[3] - s[2] for s in spans_named(*names)
                   if name_of.get(s[4]) not in names)

    def own(*names):
        return sum(self_t[s[0]] for s in spans_named(*names))

    def count(*names, parent=None):
        return sum(1 for s in spans_named(*names)
                   if parent is None or name_of.get(s[4]) == parent)

    def io(prefix):
        mine = [s for s in spans if s[1].startswith(prefix)]
        outer = [s for s in mine
                 if not name_of.get(s[4], "").startswith("dataio.")]
        return (sum(s[3] - s[2] for s in outer), sum(s[5] for s in mine))

    read_s, read_bytes = io("dataio.read_")
    write_s, write_bytes = io("dataio.write_")
    normals = spans_named("rng.RngStream.normals")
    return {
        "rng.normals_s": inclusive("rng.RngStream.normals"),
        "rng.draws": sum(s[5] for s in normals),
        "rgbm.step_s": own("rgbm.step"),
        "rgbm.step_calls": count("rgbm.step"),
        "rgbm.step_components_s": own("rgbm.step_components"),
        "rgbm.bottom_share_s": own("rgbm.bottom_share_of",
                                   "rgbm.bottom_share"),
        "rgbm.bottom_share_calls": count("rgbm.bottom_share_of"),
        "calibrate.gap_evals": count("rgbm.bottom_share_of",
                                     parent="calibrate._search_tau"),
        "calibrate.fit_series_s": own("calibrate.fit_series",
                                      "calibrate._search_tau"),
        "calibrate.years_fitted": count("rgbm.step_components",
                                        parent="calibrate.fit_series"),
        "calibrate.replay_s": inclusive("calibrate.replay"),
        "calibrate.replay_calls": count("calibrate.replay"),
        "poverty.classify_s": inclusive("poverty.classify"),
        "poverty.transition_s": inclusive("poverty.transition_report"),
        "poverty.persistence_s": inclusive("poverty.persistence_report"),
        "poverty.pooled_s": inclusive("poverty.pooled_metrics"),
        "poverty.bpl_gini_s": inclusive("poverty.bpl_gini_series"),
        "poverty.paths_s": inclusive("poverty.sample_paths"),
        "poverty.probe_calls": count("poverty.transition_probs",
                                     "poverty.persistence_probs"),
        "dataio.read_s": read_s, "dataio.read_bytes": read_bytes,
        "dataio.write_s": write_s, "dataio.write_bytes": write_bytes,
        "cli.self_s": own("cli.main"),
    }
