"""Planted wrong answers: every check in ``reference.py`` must reject its case.

    python3 perfbench/run.py --self-test

Each case feeds one check a wrong answer on a tiny instance: two triangles
{0,1,2} and {3,4,5} with unit weights, whose maximizers tie at density 1 and
whose canonical answer is {0,1,2}.
"""

from __future__ import annotations

from pathlib import Path

import reference as ref

N = 6
EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
W = [1.0] * 6
PEEL_W = [3.0, 2.0, 4.0, 1.0, 1.5, 0.5]
KARATE = Path(__file__).resolve().parent.parent / "data" / "karate.txt"


def _brute():
    return ref.brute_force(N, EDGES, W)


def _swapped_peel():
    order, subset = ref.greedy_peel(N, EDGES, PEEL_W)
    return (order[1], order[0]) + order[2:], subset


def _dropped_edge():
    labels, pairs = ref.parse_edge_list(KARATE)
    idx = {lab: i for i, lab in enumerate(labels)}
    edges = [tuple(idx[t] for t in sorted(p)) for p in pairs][1:]
    return ref.check_parse(KARATE, labels, edges)


CASES = {
    "value above the LP optimum": lambda: ref.check_optimum(1.0001, 1.0001, ref.lp_densest(N, EDGES, W)),
    "set whose density is not the value": lambda: ref.check_optimum(1.0, ref.density(EDGES, W, (0, 1)), 1.0),
    "wrong small-graph value": lambda: ref.check_small((0, 1, 2), 0.9, _brute()),
    "tie broken to the later set": lambda: ref.check_small((3, 4, 5), 1.0, _brute()),
    "tie broken to the larger set": lambda: ref.check_small(tuple(range(6)), 1.0, _brute()),
    "wrong small-graph second best": lambda: ref.check_second_small(0.75, _brute()),
    "second best below the best neighbour": lambda: ref.check_second_range(
        0.5, ref.best_neighbour_density(N, EDGES, W, (0, 1, 2)), 1.0
    ),
    "second best above OPT": lambda: ref.check_second_range(1.1, 0.8, 1.0),
    "budget exceeded": lambda: ref.check_budget(101, 101, 100),
    "run and oracle disagree on queries": lambda: ref.check_budget(10, 11, 100),
    "quality above OPT": lambda: ref.check_quality(1.01, 1.0),
    "mean quality below 0.95 OPT": lambda: ref.check_mean_quality([0.9, 0.94], 1.0),
    "removal order differs from the peel": lambda: ref.check_peel(
        *_swapped_peel(), ref.greedy_peel(N, EDGES, PEEL_W)
    ),
    "output differs from the peel": lambda: ref.check_peel(
        ref.greedy_peel(N, EDGES, PEEL_W)[0], (3, 4, 5), ref.greedy_peel(N, EDGES, PEEL_W)
    ),
    "incumbent not optimal for the estimate": lambda: ref.check_lp_optimal(
        ref.density(EDGES, W, (0, 1)), ref.lp_densest(N, EDGES, W)
    ),
    "rounds over the cap": lambda: ref.check_rounds(101, 101, 100),
    "queries disagree with rounds": lambda: ref.check_rounds(10, 9, 100),
    "no better than the baseline": lambda: ref.check_beats([1.0, 1.0], [1.0, 1.0]),
    "traced output changed": lambda: ref.check_trace([(0,), (1,)], [(0,), (2,)], 5, 5),
    "traced query count differs": lambda: ref.check_trace([(0,)], [(0,)], 4, 5),
    "graph misses an edge of the file": _dropped_edge,
}


def unrejected() -> list[str]:
    """Names of the planted answers that their check let through."""
    return [name for name, case in CASES.items() if not case()]
