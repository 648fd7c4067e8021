"""Every benchmark workload still runs and passes its own check.

``perfbench/workloads.py`` calls the package's public functions and reads
some of their diagnostics (DS-Lin's ``state.A_inv``, ``b``, ``iterations``
and ``incumbent_density_trace``, say), so a refactor that changes them would
only fail a benchmark run. Here one round of each workload, and the check
the benchmark makes of it, runs in the suite instead. The benchmark's source
is read and run in memory, and its weight files go under ``tmp_path``;
nothing under ``perfbench/`` is written.
"""

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name: str) -> types.ModuleType:
    module = types.ModuleType(name)
    # dataclasses look their module up by name while the class body runs
    sys.modules[name] = module
    path = PERFBENCH / f"{name}.py"
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads():
    saved = {name: sys.modules.get(name) for name in ("reference", "workloads")}
    try:
        load("reference")  # workloads.py imports it by this name
        yield load("workloads")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("name", ["dssr-budget", "dslin-karate", "exact-solve"])
def test_one_round_of_each_workload_passes_its_check(workloads, name, tmp_path):
    assert set(workloads.WORKLOADS) == {"dssr-budget", "dslin-karate", "exact-solve"}
    before = sorted(PERFBENCH.rglob("*"))
    wl = workloads.WORKLOADS[name](ROOT, 0, tmp_path)
    wl.setup()
    records, outs = [], []
    for i, op in enumerate(wl.round_ops(0)):
        outs.append(op.call(outs))
        rec = workloads.Record(op.kind, 0, i, 0.0)
        rec.out, rec.queries = wl.digest(op, outs[-1])
        records.append(rec)
    per_op, problems, ratios = wl.check(records)
    assert [found for found in per_op if found] == []
    assert problems == []
    assert len(per_op) == len(records) and ratios
    assert sorted(PERFBENCH.rglob("*")) == before
