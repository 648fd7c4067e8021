"""Comparison baselines: uniform arm sampling and interval-guided
single-edge sampling.

``run_naive`` pulls a uniformly random arm each round, splits the observed
subset sum equally over the arm's induced edges, and keeps per-edge running
averages; one exact solve on the averages produces the output.

``run_r_oracle`` is granted interval side information around the hidden
truth (l_e = max(w_e - 1, 0), r_e = w_e + 1), samples every edge
individually often enough to pin down its mean, clips the empirical means
back into the intervals, and solves exactly on the resulting lower bounds.
"""

from __future__ import annotations

import math

import numpy as np

from .dslin import ArmFamily
from .graph import Graph, as_weight_vector
from .oracle import SamplingOracle, _check_oracle_graph
from .solvers import exact_densest


def run_naive(
    G: Graph,
    family: ArmFamily,
    oracle: SamplingOracle,
    T: int,
) -> tuple[int, ...]:
    """Uniform-arm baseline under a budget of T rounds.

    Arms are drawn from a generator seeded with the oracle's seed. Arms with
    no induced edges burn their round without an oracle call (the oracle
    refuses empty subsets). Negative running averages are clipped to
    zero before the final exact solve, mirroring the estimator clipping of
    the fixed-confidence algorithm.
    """
    _check_oracle_graph(G, oracle)
    if T < 1:
        raise ValueError("budget T must be at least 1")
    if not family.arms:
        raise ValueError("arm family is empty")
    rng = np.random.default_rng(oracle.seed)
    w_avg = np.zeros(G.m)
    visits = np.zeros(G.m, dtype=np.int64)
    for _ in range(T):
        arm = int(rng.integers(len(family.arms)))
        idx = family.edge_index[arm]
        if not idx.size:
            continue
        share = oracle.sample_edges(idx) / idx.size
        # an edge set has no repeats, so this is the per-edge running
        # average, element by element
        count = visits[idx] + 1
        visits[idx] = count
        mean = w_avg[idx]
        w_avg[idx] = mean + (share - mean) / count
    return exact_densest(G, np.clip(w_avg, 0.0, None)).subset


def run_r_oracle(
    G: Graph,
    w_true_hidden,
    oracle: SamplingOracle,
    gamma: float = 0.9,
    eps: float = 0.9,
) -> tuple[int, ...]:
    """Interval baseline: per-edge sampling with robust clipping.

    The intervals around the hidden truth are l_e = max(w_e - 1, 0) and
    r_e = w_e + 1. Each edge e with l_e < r_e is sampled

        t_e = ceil(m (r_e-l_e)^2 ln(2m/gamma) / (eps^2 f_minus^2))

    times (all single-edge queries), where f_minus is the exact optimal
    density under the lower bounds; the empirical mean is clipped into
    [l_e, r_e] and then tightened to half-width eps*f_minus/sqrt(2m). The
    output is the exact maximizer under the tightened lower bounds.
    """
    _check_oracle_graph(G, oracle)
    if not (0 < gamma < 1):
        raise ValueError("gamma must lie in (0, 1)")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    w = as_weight_vector(G, w_true_hidden)
    m = G.m
    lo = np.maximum(w - 1.0, 0.0)
    hi = w + 1.0
    f_minus = exact_densest(G, lo).value
    if f_minus <= 0.0:
        raise ValueError(
            "degenerate intervals: the lower-bound weights have zero optimal "
            "density, so the per-edge sample count is undefined"
        )
    half = eps * f_minus / math.sqrt(2.0 * m)
    log_term = math.log(2.0 * m / gamma)
    l_out = lo.copy()
    for e in range(m):
        if lo[e] >= hi[e]:
            continue
        t_e = math.ceil(m * (hi[e] - lo[e]) ** 2 * log_term / (eps**2 * f_minus**2))
        F = (e,)  # one tuple for all t_e queries, so the oracle checks it once
        draws = [oracle.sample_edges(F) for _ in range(t_e)]
        p_hat = min(max(math.fsum(draws) / t_e, lo[e]), hi[e])
        l_out[e] = max(lo[e], p_hat - half)
    return exact_densest(G, l_out).subset
