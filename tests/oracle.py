"""Exhaustive reference for the isotonic projection, shared by the
projection tests and acceptance criterion 05."""

from fractions import Fraction

import numpy as np

from membranes.errors import InvalidWeight


def qp_oracle_project(values, weights):
    """Exhaustive block-partition reference for ``isotonic_project_batch``.

    Enumerates all compositions of N into contiguous blocks, pools each block
    to its weighted mean, and returns the feasible minimizer.  A float pass
    screens the compositions; near-ties (objective gaps below float
    resolution of the total) and order violations below the screen's slack
    are resolved in exact rational arithmetic, so the reference is exact
    even for adversarial inputs.  Exponential in N, hence the size guard.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0.0):
        raise InvalidWeight("weights must be strictly positive")
    n = v.shape[0]
    if n > 12:
        raise ValueError(f"oracle limited to N <= 12, got {n}")
    scale = max(1.0, float(np.abs(v).max()))
    candidates = []  # (obj, cuts, pooled)
    for mask in range(1 << (n - 1)):
        # Bit k set means a block boundary between positions k and k+1.
        cuts = [0] + [k + 1 for k in range(n - 1) if mask >> k & 1] + [n]
        u = np.empty(n)
        feasible = True
        prev = np.inf
        for a, b in zip(cuts[:-1], cuts[1:]):
            mean = float(w[a:b] @ v[a:b] / w[a:b].sum())
            # Loose screen, so that rounding in the means cannot drop the optimum.
            if mean > prev + 1e-9 * scale:
                feasible = False
                break
            prev = mean
            u[a:b] = mean
        if feasible:
            candidates.append((float(w @ (u - v) ** 2), cuts, u))
    best_obj = min(c[0] for c in candidates)
    near = [c for c in candidates if c[0] <= best_obj * (1.0 + 1e-10) + 1e-30]
    if len(near) == 1 and np.all(near[0][2][:-1] >= near[0][2][1:]):
        return near[0][2]
    # The screen also passes compositions that violate the order by less
    # than its slack, e.g. v = (0, 1e-9), and one of them can beat the
    # optimum in float.  Resolve exactly, over every screened composition if
    # no near-tie is exactly feasible.
    best = _resolve_exact(near, v, w)
    return _resolve_exact(candidates, v, w) if best is None else best


def _resolve_exact(candidates, v, w):
    """Exact-rational comparison of near-tied compositions."""
    v_f = [Fraction(float(x)) for x in v]
    w_f = [Fraction(float(x)) for x in w]
    best = None
    best_obj = None
    for _, cuts, pooled in candidates:
        means = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            num = sum(w_f[i] * v_f[i] for i in range(a, b))
            den = sum(w_f[i] for i in range(a, b))
            means.append(num / den)
        if any(means[i] < means[i + 1] for i in range(len(means) - 1)):
            continue
        obj = Fraction(0)
        for (a, b), m in zip(zip(cuts[:-1], cuts[1:]), means):
            for i in range(a, b):
                obj += w_f[i] * (m - v_f[i]) ** 2
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best = pooled
    return best
