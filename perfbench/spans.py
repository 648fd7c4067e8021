"""Span recording around the public functions of densebandits.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper that
records one span (name, start, end, parent) per call. The wrapper goes in
every place the package looks the function up: each ``densebandits`` module
that imported it by name, and the class for the oracle's method. Spans live
in flat arrays while the run lasts and are saved when it ends. A span's self
time is its duration minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) of each traced function; the oracle entry is a method
LAYERS = (
    ("graph", "load_edge_list"),
    ("graph", "load_weights"),
    ("graph", "induced_edges"),
    ("graph", "density"),
    ("graph", "star_edges"),
    ("oracle", "SamplingOracle.sample_edges"),
    ("solvers", "exact_densest"),
    ("solvers", "second_best_density"),
    ("dssr", "sample_phase_vertex"),
    ("dssr", "run_dssr"),
    ("dslin", "generate_arm_family"),
    ("dslin", "update"),
    ("dslin", "estimate"),
    ("dslin", "confidence_radius"),
    ("dslin", "check_stop"),
    ("dslin", "select_arm"),
    ("dslin", "run_dslin"),
    ("baselines", "run_naive"),
    ("experiments", "knockout_weights"),
)


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """In-memory span store plus the two counters the spans cannot give."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.noise_draws = 0  # sum of |F| over noisy oracle queries
        self.useful_phase_calls = 0  # sample_phase_vertex calls that queried

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _counted(self, name: str, fn):
        if name == "oracle.sample_edges":

            def counted(oracle, F):
                if oracle.noise.kind != "none":
                    self.noise_draws += len(F)
                return fn(oracle, F)

        elif name == "dssr.sample_phase_vertex":

            def counted(state, *args):
                before = state.oracle.total_queries
                fn(state, *args)
                if state.oracle.total_queries > before:
                    self.useful_phase_calls += 1

        else:
            return fn
        return functools.wraps(fn)(counted)

    def install(self):
        """Wrap every traced function; returns a callable that restores them."""
        modules = [mod for key, mod in sys.modules.items() if key.startswith("densebandits")]
        restore = []
        for module, attr in LAYERS:
            name = layer_name(module, attr)
            owner = sys.modules[f"densebandits.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                places = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                places = [
                    (mod, key) for mod in modules for key, val in vars(mod).items() if val is original
                ]
            wrapped = self._span(name, self._counted(name, original))
            for place, key in places:
                setattr(place, key, wrapped)
                restore.append((place, key, original))

        def undo():
            for place, key, original in restore:
                setattr(place, key, original)

        return undo

    def _arrays(self):
        return (
            np.frombuffer(self.name_of, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s, p50_us, p99_us and total_s per traced layer."""
        name_of, parent, start, end = self._arrays()
        dur = end - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        self_t = dur - child
        stats = {}
        for nid, name in enumerate(self.names):
            sel = name_of == nid
            d = dur[sel]
            stats[name] = {
                "calls": int(d.size),
                "self_s": float(self_t[sel].sum()),
                "total_s": float(d.sum()),
                "p50_us": float(np.percentile(d, 50) * 1e6) if d.size else 0.0,
                "p99_us": float(np.percentile(d, 99) * 1e6) if d.size else 0.0,
            }
        return stats

    def save(self, path: Path) -> None:
        name_of, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name_of, parent=parent, start=start, end=end)
