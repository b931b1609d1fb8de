"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavy solves are shared through session
fixtures.
"""

import time

import numpy as np
import pytest

from membranes import analysis, exact1d, gamesim, solver2d
from membranes.cones1d import Cone1D, decompose_degenerate, enumerate_cones
from membranes.errors import NotRegular
from membranes.problem import ProblemSpec, normalize, pooled_groups
from membranes.projection import isotonic_project_batch
from membranes.solver2d import Grid, GridSolution2D

import reference
from oracle import qp_oracle_project
from test_solver2d import ordered_random_boundary

SPEC2 = normalize(ProblemSpec(2, (1.0, 1.0), (1.0, -1.0)))
SPEC3 = normalize(ProblemSpec(3, (1.0, 2.0, 1.5), (2.0, 0.3, -1.0)))
SPEC3U = normalize(ProblemSpec(3, (1.0, 1.0, 1.0), (1.0, 0.2, -0.8)))
SPEC4 = normalize(ProblemSpec(4, (1.0, 0.7, 2.0, 1.1), (3.0, 1.0, 0.0, -2.0)))
SPECS_UP_TO_4 = (ProblemSpec(1, (1.0,), (0.0,)), SPEC2, SPEC3, SPEC4)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    assert ok, line


def all_connected(spec):
    return [c for c in enumerate_cones(spec) if c.connected]


# ---------------------------------------------------------------------------
# Shared heavy artifacts


@pytest.fixture(scope="module")
def disk_solutions():
    """Rotated half-plane cone on the disk B_{1/2}, cascaded h=1/16..1/128."""
    p0 = Cone1D(SPEC2, "L")
    theta = 0.35
    data = lambda pts: p0.eval_2d(pts, theta)
    out = {}
    prev = None
    for h in (1 / 16, 1 / 32, 1 / 64, 1 / 128):
        grid = Grid.disk(0, 0, 0.5, h)
        init = solver2d.prolong(prev, grid) if prev is not None else None
        t0 = time.perf_counter()
        sol = solver2d.solve(SPEC2, grid, data, tol=3e-10, max_sweeps=200000, init=init)
        wall = time.perf_counter() - t0
        itr = grid.indexing()[0]
        err = float(np.abs(sol.u[itr] - p0.eval_2d(grid.coords()[itr], theta)).max())
        out[h] = (sol, err, wall)
        prev = sol
    return {"solutions": out, "theta": theta, "cone": p0}


@pytest.fixture(scope="module")
def line_solutions():
    """1D solve against the exact global solution, free boundaries placed at
    2/3-cell offsets of the h=1/64 grid so the offsets halve at 1/128."""
    cone = Cone1D(SPEC3, "RR")
    gamma = np.array([(19 + 2 / 3) / 64, (-13 + 2 / 3) / 64])
    pq = exact1d.gamma_to_solution(cone, gamma)
    data = lambda pts: pq.eval(pts[:, 0])
    out = {}
    prev = None
    for h in (1 / 32, 1 / 64, 1 / 128):
        grid = Grid.interval(-1, 1, h)
        init = solver2d.prolong(prev, grid) if prev is not None else None
        t0 = time.perf_counter()
        sol = solver2d.solve(SPEC3, grid, data, tol=2e-11, max_sweeps=300000, init=init)
        wall = time.perf_counter() - t0
        itr = grid.indexing()[0]
        err = float(np.abs(sol.u[itr] - pq.eval(grid.coords()[itr, 0])).max())
        out[h] = (sol, err, wall)
        prev = sol
    return {"solutions": out, "exact": pq, "cone": cone}


@pytest.fixture(scope="module")
def game_setup():
    """33x33 lattice, N=3, unit weights, Bellman fixed point."""
    grid = Grid.rectangle(0, 1, 0, 1, 1 / 32)
    cone = Cone1D(SPEC3U, "LL")
    data = lambda pts: cone.eval_2d(pts - 0.5, 0.25)
    game = gamesim.membrane_game(SPEC3U, grid, data)
    table = gamesim.bellman_solve(game, tol=1e-14)
    return {"grid": grid, "game": game, "table": table, "data": data}


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_catalogue_counts():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        spec = normalize(
            ProblemSpec(n, tuple(1.0 + 0.1 * k for k in range(n)),
                        tuple(float(n - 1.9 * k) for k in range(n)))
        )
        cones = enumerate_cones(spec)
        ok &= len(cones) == 3 ** (n - 1)
        ok &= sum(c.connected for c in cones) == 2 ** (n - 1)
    wall = time.perf_counter() - t0
    report(1, "catalogue counts", ok and wall < 1.0, f"N<=8 in {wall:.2f}s")


def test_criterion_02_shift_identity():
    xs = np.linspace(-5, 5, 1001)
    worst = 0.0
    for spec in SPECS_UP_TO_4:
        for cone in all_connected(spec):
            t = exact1d.tau(cone)
            for s in (-1.3, 0.7, 2.0):
                sol = exact1d.solution_for(cone, s * t)
                worst = max(worst, float(np.abs(sol.eval(xs) - cone.eval(xs + s)).max()))
    report(2, "shift identity", worst <= 1e-10, f"max |h(x,s tau)-p(x+s)| = {worst:.2e}")


def test_criterion_03_round_trip():
    rng = np.random.default_rng(303)
    worst = 0.0
    for spec in SPECS_UP_TO_4[1:]:
        for cone in all_connected(spec):
            for _ in range(200):
                b = exact1d.random_branch_vector(cone, rng, scale=rng.uniform(0.02, 4.0))
                gam = exact1d.b_to_gamma(cone, b)
                b2 = exact1d.solution_to_b(exact1d.gamma_to_solution(cone, gam))
                worst = max(worst, float(np.linalg.norm(b2.values - b.values)))
    report(3, "gamma/b round trip", worst <= 1e-9, f"max residual {worst:.2e} over 200/cone")


def test_criterion_04_error_function_structure():
    rng = np.random.default_rng(404)
    homog_worst = 0.0
    tau_asym_worst = 0.0
    c_emps = []
    for spec in SPECS_UP_TO_4[1:]:
        for cone in all_connected(spec):
            t = exact1d.tau(cone)
            for s in (0.6, -1.2):
                tau_asym_worst = max(tau_asym_worst, exact1d.asymmetry(cone, s * t))
            for _ in range(25):
                b = exact1d.random_branch_vector(cone, rng, scale=rng.uniform(0.05, 2.0))
                e1 = exact1d.error_function(cone, b).values
                for lam in (0.5, 2.0):
                    e2 = exact1d.error_function(cone, lam * b).values
                    homog_worst = max(homog_worst, float(np.abs(e2 - lam**2 * e1).max()))
            if spec.n_membranes >= 3:
                t_hat = t.values / t.norm()
                ratios = []
                for _ in range(1000):
                    b = exact1d.random_branch_vector(cone, rng, 1.0)
                    b_hat = b.values / b.norm()
                    dist = min(
                        float(np.linalg.norm(b_hat - t_hat)),
                        float(np.linalg.norm(b_hat + t_hat)),
                    )
                    if dist > 1e-6:
                        ratios.append(exact1d.asymmetry(cone, b) / dist**2)
                c_emps.append(min(ratios))
    c_emp = min(c_emps)
    ok = homog_worst <= 1e-9 and tau_asym_worst <= 1e-10 and c_emp > 0
    report(
        4,
        "error function structure",
        ok,
        f"homog {homog_worst:.1e}, asym(s tau) {tau_asym_worst:.1e}, c_emp {c_emp:.3e}",
    )


def test_criterion_05_projection_oracle_and_throughput():
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in range(2, 9):
        w = rng.uniform(0.2, 3.0, n)
        for _ in range(1000):
            v = rng.standard_normal(n) * 2.5
            dev = np.abs(isotonic_project_batch(v, w) - qp_oracle_project(v, w)).max()
            worst = max(worst, float(dev))
    m = 400000
    batch = rng.standard_normal((m, 4)) * 2
    w4 = rng.uniform(0.3, 2.0, 4)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        isotonic_project_batch(batch, w4)
        best = min(best, time.perf_counter() - t0)
    throughput = m / best
    ok = worst <= 1e-10 and throughput >= 1e6
    report(
        5,
        "projection oracle + throughput",
        ok,
        f"max dev {worst:.1e}, {throughput:.2e} projections/s at N=4",
    )


def test_criterion_06_convergence_order(disk_solutions, line_solutions):
    d = disk_solutions["solutions"]
    l = line_solutions["solutions"]
    ratio_disk = d[1 / 64][1] / d[1 / 128][1]
    ratio_line = l[1 / 64][1] / l[1 / 128][1]
    max_wall = max(v[2] for v in list(d.values()) + list(l.values()))
    ok = ratio_disk >= 3.6 and ratio_line >= 3.6 and max_wall < 60.0
    report(
        6,
        "solver convergence order",
        ok,
        f"1D ratio {ratio_line:.2f}, disk ratio {ratio_disk:.2f}, max solve {max_wall:.1f}s",
    )


def test_criterion_07_euler_lagrange_residuals():
    # Stagnated solves so the discrete complementarity is exact.
    p0 = Cone1D(SPEC2, "L")
    grid = Grid.disk(0, 0, 0.5, 1 / 32)
    sol = solver2d.solve(SPEC2, grid, lambda p: p0.eval_2d(p, 0.35), tol=0.0, max_sweeps=120000)
    rep = solver2d.residual(sol)
    fb = analysis.extract_free_boundary(sol, 1)
    itr = grid.indexing()[0]
    coords = grid.coords()[itr]
    dist = np.min(
        np.linalg.norm(coords[:, None, :] - fb.vertices[None, ::3, :], axis=2), axis=1
    )
    away = dist > 4 * grid.h
    lap = solver2d.discrete_laplacian(sol)
    labels = solver2d.coincidence_labels(sol)
    worst_region = 0.0
    for lab in np.unique(labels[away]):
        mask = away & (labels == lab)
        for lo, hi in pooled_groups([int(lab) >> m & 1 for m in range(SPEC2.n_membranes - 1)]):
            w = SPEC2.w[lo:hi]
            f_i = w @ SPEC2.f[lo:hi] / w.sum()
            worst_region = max(worst_region, float(np.abs(lap[mask][:, lo:hi] @ w / w.sum() - f_i).max()))
    ok = worst_region <= 1e-6 and rep.weighted_identity <= 1e-9
    report(
        7,
        "Euler-Lagrange residuals",
        ok,
        f"region {worst_region:.2e} away from FB, weighted identity {rep.weighted_identity:.2e}",
    )


def test_criterion_08_weiss_value():
    p0 = Cone1D(SPEC2, "L")
    grid = Grid.rectangle(-1, 1, -1, 1, 1 / 256)
    vals = p0.eval_2d(grid.coords())
    sol = GridSolution2D(grid, SPEC2, vals, vals[grid.indexing()[1]])
    radii = np.linspace(0.25, 0.9, 7)
    prof = analysis.weiss(sol, (0, 0), radii)
    target = np.pi / 32 * float(SPEC2.w @ SPEC2.f**2)
    dev = float(np.abs(prof.W - target).max())
    spread = float(prof.W.max() - prof.W.min())
    ok = abs(target - np.pi / 16) < 1e-15 and dev <= 2e-3 and spread <= 2e-3
    report(8, "Weiss value", ok, f"|W - pi/16| <= {dev:.2e}, spread {spread:.2e} at h=1/256")


def test_criterion_09_weiss_monotonicity():
    grid = Grid.rectangle(-1, 1, -1, 1, 1 / 32)
    radii = np.linspace(0.2, 0.9, 8)
    fails = 0
    c_q = None
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        spec = SPEC2 if seed % 2 == 0 else SPEC3
        sol = solver2d.solve(spec, grid, ordered_random_boundary(spec, rng), max_sweeps=60000)
        prof = analysis.weiss(sol, (0, 0), radii)
        c_q = analysis.calibrate_weiss_slack(sol, (0, 0), radii)
        if not analysis.monotonicity_check(prof, c_q).ok:
            fails += 1
        if seed == 0:
            bad = sol.u.copy()
            bump = 0.25 * np.exp(-(((np.linalg.norm(grid.coords(), axis=1) - 0.5) / 0.1) ** 2))
            bad[:, 0] += bump
            bad[:, -1] -= bump
            bsol = GridSolution2D(grid, spec, bad, sol.boundary_values)
            bprof = analysis.weiss(bsol, (0, 0), radii)
            control_flagged = not analysis.monotonicity_check(bprof, c_q).ok
    ok = fails == 0 and control_flagged
    report(
        9,
        "Weiss monotonicity",
        ok,
        f"{20 - fails}/20 monotone within slack, negative control flagged: {control_flagged}",
    )


def test_criterion_10_maximum_principle():
    grid = Grid.rectangle(0, 1, 0, 1, 1 / 16)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1500 + seed)
        spec = (SPEC2, SPEC3, SPEC3U)[seed % 3]
        data_b = ordered_random_boundary(spec, rng)
        lift = rng.uniform(0.02, 0.5)
        phase = rng.uniform(0, np.pi)
        data_a = lambda p: data_b(p) + lift * (1.1 + np.sin(2 * p[:, 0] + phase))[:, None]
        sol_a = solver2d.solve(spec, grid, data_a, tol=0.0, max_sweeps=30000)
        sol_b = solver2d.solve(spec, grid, data_b, tol=0.0, max_sweeps=30000)
        verdict = solver2d.check_max_principle(sol_a, sol_b, tol=1e-8)
        worst = min(worst, verdict.worst_violation)
    report(10, "maximum principle", worst >= -1e-8, f"worst interior gap {worst:.2e} over 50 pairs")


def test_criterion_11_cone_fitting():
    p0 = Cone1D(SPEC3U, "LL")
    t = exact1d.tau(p0)
    basis = exact1d.branch_space_basis(p0)
    t_hat = t.values / t.norm()
    q = basis - np.outer(t_hat, t_hat @ basis)
    b_true = exact1d.BranchVector(p0, q[:, 0] / np.linalg.norm(q[:, 0]) * 0.05)
    theta_true = 0.3
    prof = exact1d.ApproximateProfile2D(p0, exact1d.zero_branch_vector(p0), b_true, theta_true)
    grid = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
    coords = grid.coords()
    r = 0.6
    rng = np.random.default_rng(1111)
    vals = prof.eval(coords) + 1e-3 * r * r * rng.uniform(-1, 1, (len(coords), 3))
    sol = GridSolution2D(grid, SPEC3U, vals, vals[grid.indexing()[1]])
    fit = analysis.fit_cone(sol, (0, 0), r, catalogue=[p0])
    theta_err = abs(fit.angle - theta_true)
    b_err = float(np.linalg.norm(fit.b.values - b_true.values)) / b_true.norm()

    dec = decompose_degenerate(Cone1D(SPEC2, "."))
    dprof = exact1d.build_degenerate_profile(dec, [0.0, 0.0], [(-0.5, 0.0), (0.5, 0.0)])
    dgrid = Grid.rectangle(-1, 1, -1, 1, 1 / 48)
    dvals = dprof.eval(dgrid.coords())
    dsol = GridSolution2D(dgrid, SPEC2, dvals, dvals[dgrid.indexing()[1]])
    try:
        analysis.regular_point_probe(dsol, (0, 0), radius=0.5)
        degenerate_flagged = False
    except NotRegular:
        degenerate_flagged = True

    ok = theta_err <= 2e-3 and b_err <= 0.10 and degenerate_flagged
    report(
        11,
        "cone fitting",
        ok,
        f"theta err {theta_err:.2e}, b rel err {b_err:.3f}, degenerate NotRegular: {degenerate_flagged}",
    )


def test_criterion_12_quadratic_growth(disk_solutions):
    sol = disk_solutions["solutions"][1 / 64][0]
    c_exact = (SPEC2.f[0] - SPEC2.f[1]) / 2.0
    radii = [0.13, 0.16, 0.2]  # within [8h, 0.2] at h=1/64
    out = solver2d.quadratic_growth_probe(sol, 1, radii)
    lo = min(v[0] for v in out.values())
    hi = max(v[1] for v in out.values())
    ok = lo >= 0.9 * c_exact and hi <= 1.1 * c_exact
    report(
        12,
        "quadratic growth",
        ok,
        f"ratio in [{lo:.3f}, {hi:.3f}] vs (f1-f2)/2 = {c_exact}",
    )


def test_criterion_13_game_pde_equivalence(game_setup):
    grid = game_setup["grid"]
    game = game_setup["game"]
    table = game_setup["table"]
    gs = GridSolution2D(grid, SPEC3U, table.v, game.payoffs.copy())
    rep = solver2d.residual(gs)
    ref = solver2d.solve(SPEC3U, grid, game_setup["data"], tol=0.0, max_sweeps=100000)
    itr = grid.indexing()[0]
    match = float(np.abs(table.v[itr] - ref.u[itr]).max())
    exact = reference.exact_solution(grid.role, grid.h, SPEC3U.w, SPEC3U.f, table.v)
    exact_gap = float(np.abs(table.v[itr] - exact[itr]).max())

    rng = np.random.default_rng(13)
    probes = rng.choice(itr, 5, replace=False)
    mc_ok = True
    gaps = []
    for i, node in enumerate(probes):
        ticket = 1 + i % 3
        [(mean, se)] = gamesim.monte_carlo_eval(
            game, table, int(node), [ticket], 100000, seed=77 + i
        )
        gap = abs(mean - table.v[node, ticket - 1])
        gaps.append(gap / max(se, 1e-300))
        mc_ok &= gap <= 3 * se + 1e-12
    rerun = gamesim.monte_carlo_eval(game, table, int(probes[0]), [1], 100000, seed=77)
    first = gamesim.monte_carlo_eval(game, table, int(probes[0]), [1], 100000, seed=77)
    bit_identical = rerun == first

    ok = (rep.kkt_residual < 1e-8 and match < 1e-8 and exact_gap < 1e-8 and mc_ok
          and bit_identical)
    report(
        13,
        "game-PDE equivalence",
        ok,
        f"kkt {rep.kkt_residual:.1e}, match {match:.1e}, reference {exact_gap:.1e}, "
        f"MC gaps/se {max(gaps):.2f}, bit-identical {bit_identical}",
    )


def test_criterion_14_rate_diagnostic():
    rs = np.geomspace(1e-4, 0.5, 10)
    rf_log = analysis.rate_fit(list(zip(rs, 1.0 / (-np.log(rs)))))
    rf_pow = analysis.rate_fit(list(zip(rs, rs**0.7)))
    ok = (
        rf_log.preferred == "log"
        and rf_log.log_residual < 1e-12
        and rf_pow.preferred == "power"
    )
    report(
        14,
        "rate diagnostic",
        ok,
        f"log resid {rf_log.log_residual:.1e}, power alpha {rf_pow.power_alpha:.2f}",
    )
