"""Weighted projection onto the ordered cone u_1 >= u_2 >= ... >= u_N.

One vectorized kernel evaluates the min-max formula for antitonic regression
(Robertson, Wright & Dykstra 1988, *Order Restricted Statistical Inference*),

    u_i = min_{a <= i} max_{b >= i} Av(a..b),

with Av(a..b) the weighted mean of v_a, ..., v_b, over many rows at once.
This is the inner loop of every grid sweep and of the game exchange step.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidWeight


def isotonic_project_batch(values, weights):
    """Row-wise weighted isotonic projection of an (M, N) array (or one vector):
    the minimizer of sum w_i (u_i - v_i)^2 subject to u_1 >= ... >= u_N, so
    pooled blocks carry their weighted average.

    Each mean Av(a..b) is summed left to right from a, so Av(a..a) is v_a
    itself.  The result is min/max over one fixed set of floats, hence
    exactly non-increasing, and rows that are already ordered come back
    bit-identical.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0):
        raise InvalidWeight(f"weights must be strictly positive, got {w}")
    n = w.shape[0]
    if v.shape[-1] != n:
        raise InvalidWeight("values and weights must have equal length")
    c = np.ascontiguousarray(np.atleast_2d(v).T)  # c[i] holds v_i of every row
    wc = c * w[:, None]
    u = np.empty_like(c)
    for a in range(n):
        s, tw, means = wc[a], w[a], [c[a]]
        for b in range(a + 1, n):
            s = s + wc[b]
            tw = tw + w[b]
            means.append(s / tw)
        # Running max of Av(a..b) from b = N-1 down gives max_{b>=i} for each i >= a.
        tops = itertools.accumulate(reversed(means), np.maximum)
        for i, top in zip(range(n - 1, a - 1, -1), tops):
            u[i] = top if a == 0 else np.minimum(u[i], top)
    # u_i lies between min(v_1..v_i) and max(v_i..v_N).  Clamping to these
    # removes rounding in means over tied values, so ordered rows are fixed.
    lo, hi = c[0], c[-1]
    for i in range(1, n):
        lo = np.minimum(lo, c[i])
        u[i] = np.maximum(u[i], lo)
        hi = np.maximum(hi, c[-1 - i])
        u[-1 - i] = np.minimum(u[-1 - i], hi)
    return u.T.reshape(v.shape)
