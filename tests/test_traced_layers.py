"""The benchmark's tracer still finds every function it wraps.

``perfbench/spans.py`` wraps each ``LAYERS`` entry by module attribute, so a
refactor that drops or renames a traced function would only fail a traced
benchmark run. Here it fails the suite instead. The tracer's source is read
and run in memory; nothing under ``perfbench/`` is written.
"""

import inspect
import sys
import types
from pathlib import Path

import densebandits  # noqa: F401 - imports every module the tracer wraps

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def lookup(module: str, attr: str):
    owner = sys.modules[f"densebandits.{module}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_every_traced_layer_resolves_and_install_is_undone():
    spans = load_spans()
    # resolving first means a missing name fails before anything is wrapped
    originals = {entry: lookup(*entry) for entry in spans.LAYERS}
    assert all(callable(fn) for fn in originals.values())
    undo = spans.Tracer().install()
    try:
        for entry, original in originals.items():
            wrapped = lookup(*entry)
            assert wrapped is not original and inspect.unwrap(wrapped) is original
    finally:
        undo()
    assert {entry: lookup(*entry) for entry in spans.LAYERS} == originals
