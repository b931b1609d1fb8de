"""Quick self-checks per module, used by the `membranes verify` subcommand.

These are lighter versions of the acceptance tests: each suite runs in a few
seconds and returns (name, passed, detail) rows.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import analysis, cones1d, exact1d, gamesim, solver2d
from .problem import ProblemSpec, normalize
from .projection import isotonic_project, qp_oracle_project

SUITES = ("cones", "exact1d", "projection", "solver", "weiss", "game", "all")

_SPEC2 = normalize(ProblemSpec(2, (1.0, 1.0), (1.0, -1.0)))
_SPEC3 = normalize(ProblemSpec(3, (1.0, 2.0, 1.5), (2.0, 0.3, -1.0)))
_SPEC3U = normalize(ProblemSpec(3, (1.0, 1.0, 1.0), (1.0, 0.2, -0.8)))


def run_suite(name):
    if name not in SUITES:
        raise KeyError(name)
    if name == "all":
        rows = []
        for s in SUITES[:-1]:
            rows.extend(run_suite(s))
        return rows
    return globals()[f"_suite_{name}"]()


def _suite_cones():
    rows = []
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        spec = normalize(ProblemSpec(n, tuple([1.0] * n), tuple(float(n - 2 * k) for k in range(n))))
        cones = cones1d.enumerate_cones(spec)
        connected = sum(c.connected for c in cones)
        ok &= len(cones) == 3 ** (n - 1) and connected == 2 ** (n - 1)
    dt = time.perf_counter() - t0
    rows.append(("catalogue counts 3^(N-1), 2^(N-1), N<=8", ok and dt < 1.0, f"{dt:.2f}s"))
    w0 = analysis.weiss_of_cone(cones1d.Cone1D(_SPEC3, "LL"))
    wmin = min(analysis.weiss_of_cone(c) for c in cones1d.enumerate_cones(_SPEC3))
    rows.append(("p0 minimizes Weiss energy (N=3)", w0 <= wmin + 1e-12, f"W(p0)={w0:.6f}"))
    return rows


def _suite_exact1d():
    rows = []
    xs = np.linspace(-5, 5, 501)
    worst = 0.0
    for pattern in ("L", "R"):
        cone = cones1d.Cone1D(_SPEC2, pattern)
        t = exact1d.tau(cone)
        for s in (-1.3, 0.7, 2.0):
            sol = exact1d.solution_for(cone, s * t)
            worst = max(worst, float(np.abs(sol.eval(xs) - cone.eval(xs + s)).max()))
    rows.append(("shift identity h(x, s tau) = p(x+s)", worst <= 1e-10, f"max err {worst:.1e}"))

    rng = np.random.default_rng(11)
    worst = 0.0
    for pattern in ("".join(p) for p in itertools.product("LR", repeat=2)):
        cone = cones1d.Cone1D(_SPEC3, pattern)
        for _ in range(20):
            b = exact1d.random_branch_vector(cone, rng, scale=rng.uniform(0.05, 2.0))
            g = exact1d.b_to_gamma(cone, b)
            b2 = exact1d.solution_to_b(exact1d.gamma_to_solution(cone, g))
            worst = max(worst, float(np.abs(b2.values - b.values).max()))
    rows.append(("gamma/b round trip (N=3)", worst <= 1e-9, f"max resid {worst:.1e}"))

    cone = cones1d.Cone1D(_SPEC3, "RL")
    b = exact1d.random_branch_vector(cone, rng, scale=0.7)
    e1 = exact1d.error_function(cone, b).values
    e2 = exact1d.error_function(cone, 2.0 * b).values
    err = float(np.abs(e2 - 4.0 * e1).max())
    rows.append(("error function degree-2 homogeneity", err <= 1e-9, f"max err {err:.1e}"))
    return rows


def _suite_projection():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in range(2, 9):
        w = rng.uniform(0.2, 3.0, n)
        for _ in range(30):
            v = rng.standard_normal(n) * 2.0
            worst = max(
                worst, float(np.abs(isotonic_project(v, w) - qp_oracle_project(v, w)).max())
            )
    return [("projection equals exhaustive oracle", worst <= 1e-10, f"max dev {worst:.1e}")]


def _suite_solver():
    rows = []
    grid = solver2d.Grid.rectangle(-1, 1, -1, 1, 1 / 8)
    spec1 = ProblemSpec(1, (1.0,), (0.0,))
    sol = solver2d.solve(spec1, grid, lambda p: (p[:, 0] ** 2 - p[:, 1] ** 2)[:, None], tol=1e-14)
    itr = grid.indexing()[0]
    err = float(np.abs(sol.u[itr, 0] - (grid.coords()[itr, 0] ** 2 - grid.coords()[itr, 1] ** 2)).max())
    rows.append(("harmonic quadratic reproduced exactly", err <= 1e-12, f"max err {err:.1e}"))

    p0 = cones1d.Cone1D(_SPEC2, "L")
    errs = {}
    for h in (1 / 8, 1 / 16):
        gd = solver2d.Grid.disk(0, 0, 0.5, h)
        s = solver2d.solve(_SPEC2, gd, lambda p: p0.eval_2d(p, 0.35), tol=0.0, max_sweeps=60000)
        itr = gd.indexing()[0]
        errs[h] = float(np.abs(s.u[itr] - p0.eval_2d(gd.coords()[itr], 0.35)).max())
    ratio = errs[1 / 8] / errs[1 / 16]
    rows.append(("disk refinement ratio >= 3 (h=1/8 vs 1/16)", ratio >= 3.0, f"ratio {ratio:.2f}"))

    gr = solver2d.Grid.rectangle(-1, 1, -1, 1, 1 / 16)
    cone = cones1d.Cone1D(_SPEC3, "RL")
    data = lambda p: cone.eval_2d(p - 0.13, 0.4) + (0.3 * p[:, 0] * p[:, 1])[:, None]
    s = solver2d.solve(_SPEC3, gr, data)
    ref = solver2d.solve(_SPEC3, gr, data, tol=0.0)
    itr = gr.indexing()[0]
    err = float(np.abs(s.u[itr] - ref.u[itr]).max())
    tol = s.meta["tol"]
    ok = s.meta["converged"] and s.meta["error_bound"] <= tol and err <= tol
    rows.append(("default-tol solve within tol of the stagnated solve", ok, f"err/tol {err / tol:.2f}"))

    s = solver2d.solve(_SPEC3, solver2d.Grid.interval(-1, 1, 1 / 16),
                       lambda p: cones1d.Cone1D(_SPEC3, "RL").eval(p[:, 0] - 0.21),
                       track_energy=True, max_sweeps=400)
    tr = s.meta["energy_trace"]
    mono = all(tr[i + 1] <= tr[i] + 1e-12 for i in range(len(tr) - 1))
    rows.append(("energy non-increasing every sweep", mono, f"{len(tr)} sweeps"))
    return rows


def _suite_weiss():
    p0 = cones1d.Cone1D(_SPEC2, "L")
    grid = solver2d.Grid.rectangle(-1, 1, -1, 1, 1 / 128)
    vals = p0.eval_2d(grid.coords())
    bnd = grid.indexing()[1]
    sol = solver2d.GridSolution2D(grid, _SPEC2, vals, vals[bnd])
    prof = analysis.weiss(sol, (0.0, 0.0), np.array([0.3, 0.5, 0.7, 0.9]))
    target = analysis.weiss_of_cone(p0)
    err = float(np.abs(prof.W - target).max())
    spread = float(prof.W.max() - prof.W.min())
    return [
        ("W(p0) matches (pi/32) sum w f^2", err <= 5e-3, f"err {err:.1e}"),
        ("W of a cone is radius independent", spread <= 5e-3, f"spread {spread:.1e}"),
        _fit_row(),
    ]


def _fit_row():
    """Acceptance criterion 11's data: a rotated N=3 profile whose branch
    vector is orthogonal to the translation direction, plus noise 1e-3 r^2."""
    cone = cones1d.Cone1D(_SPEC3U, "LL")
    t = exact1d.tau(cone)
    t_hat = t.values / t.norm()
    basis = exact1d.branch_space_basis(cone)
    q = basis[:, 0] - t_hat * (t_hat @ basis[:, 0])
    b_true = exact1d.BranchVector(cone, q / np.linalg.norm(q) * 0.05)
    theta, r = 0.3, 0.6
    prof = exact1d.ApproximateProfile2D(cone, exact1d.zero_branch_vector(cone), b_true, theta)
    grid = solver2d.Grid.rectangle(-1, 1, -1, 1, 1 / 64)
    noise = 1e-3 * r * r * np.random.default_rng(1111).uniform(-1, 1, (grid.n_nodes, 3))
    vals = prof.eval(grid.coords()) + noise
    sol = solver2d.GridSolution2D(grid, _SPEC3U, vals, vals[grid.indexing()[1]])
    fit = analysis.fit_cone(sol, (0, 0), r, catalogue=[cone])
    d_theta = abs(fit.angle - theta)
    return ("fit_cone recovers a rotated N=3 profile", d_theta <= 2e-3, f"angle err {d_theta:.1e}")


def _suite_game():
    spec = normalize(ProblemSpec(2, (1.0, 1.0), (1.0, -1.0)))
    grid = solver2d.Grid.rectangle(0, 1, 0, 1, 1 / 16)
    p0 = cones1d.Cone1D(spec, "L")
    data = lambda pts: p0.eval_2d(pts - 0.5, 0.3)
    game = gamesim.membrane_game(spec, grid, data)
    vt = gamesim.bellman_solve(game, tol=1e-14)
    sol = solver2d.solve(spec, grid, data, tol=0.0, max_sweeps=40000)
    itr = grid.indexing()[0]
    diff = float(np.abs(vt.v[itr] - sol.u[itr]).max())
    rows = [("Bellman fixed point equals grid solution", diff <= 1e-8, f"max diff {diff:.1e}")]
    kkt = solver2d.residual(solver2d.GridSolution2D(grid, spec, vt.v, game.payoffs)).kkt_residual
    rows.append(("Bellman table satisfies KKT (residual <= 1e-8)", kkt <= 1e-8, f"kkt {kkt:.1e}"))
    probe = itr[len(itr) // 2]
    [(mean, se)] = gamesim.monte_carlo_eval(game, vt, probe, [1], 20000, seed=123)
    gap = abs(mean - vt.v[probe, 0])
    rows.append(("Monte Carlo within 3 SE of Bellman", gap <= 3 * se + 1e-12, f"gap {gap:.2e}, se {se:.2e}"))
    return rows
