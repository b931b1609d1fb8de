"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the timed
set-up), runs one fixed batch of operations in ``batch`` (the timed part,
one operation after another) and checks that batch's outputs in ``check``
(untimed).  The ``Outcome`` of a batch holds the failed operations with the
reason (an exception, a nonzero exit, ``converged: false`` or a failed
output check), a digest of the outputs, and the phase times and counts a
user of the pipeline would see.

The exact references behind ``err_over_tol`` and the game check come from
``reference.exact_solution``; ``references`` builds them once per run from
the first batch's inputs, outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from membranes import analysis, cli, exact1d, gamesim, solver2d
from membranes.cones1d import Cone1D, decompose_degenerate, enumerate_cones
from membranes.errors import NotRegular
from membranes.problem import ProblemSpec, normalize
from membranes.solver2d import Grid, GridSolution2D

import reference

perf = time.perf_counter

SPEC2 = normalize(ProblemSpec(2, (1.0, 1.0), (1.0, -1.0)))
SPEC3 = normalize(ProblemSpec(3, (1.0, 2.0, 1.5), (2.0, 0.3, -1.0)))
SPEC3U = normalize(ProblemSpec(3, (1.0, 1.0, 1.0), (1.0, 0.2, -0.8)))
SPEC4 = normalize(ProblemSpec(4, (1.0, 0.7, 2.0, 1.1), (3.0, 1.0, 0.0, -2.0)))


@dataclass
class Outcome:
    ops: int = 0
    failures: list = field(default_factory=list)  # one message per failed operation
    digest: str = ""
    stats: dict = field(default_factory=dict)  # phase times and counts of this batch
    result: object = None  # what the batch produced; ``check`` keeps what the references need
    code: int = 0  # exit code of a CLI operation
    wall: float = 0.0  # seconds, set by the runner
    scaled: float = 0.0  # wall at the reference machine's speed, set by the runner
    traced: bool = False


def _digest(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _ordering_gap(u):
    """Smallest u_k - u_{k+1} over active nodes (exact, no tolerance)."""
    act = np.isfinite(u[:, 0])
    return float((u[act, :-1] - u[act, 1:]).min()) if u.shape[1] > 1 else 0.0


def ordered_random_boundary(spec, rng, amp=0.3):
    """Smooth random Dirichlet data respecting the ordering (criterion 09's family)."""
    n = spec.n_membranes
    coef = rng.standard_normal((n, 3)) * amp
    gaps = rng.uniform(0.1, 0.5, n)

    def data(pts):
        t = pts[:, 0] + pts[:, 1]
        base = coef[0, 0] * np.sin(2 * t) + coef[0, 1] * np.cos(t) + coef[0, 2]
        rows = []
        level = base
        for k in range(n - 1, -1, -1):
            rows.append(level.copy())
            if k > 0:
                level = level + gaps[k] * (1.1 + np.sin(3 * t + coef[k, 1]))
        return np.column_stack(rows[::-1])

    return data


class WeissRect:
    """Criterion 09's family through the library: solve to the default tol,
    then the Weiss profile, its quadrature slack and the monotonicity check.

    Why: sweeps and the general N>=3 projection dominate here.  The two
    instances are criterion 09's first two (rng 900 with N=2, rng 901 with
    N=3; 1,247 and 5,586 sweeps at the seed commit).  Their sweep counts
    differ fourfold from one random instance to the next, so the seed does
    not pick new instances: it adds a random harmonic polynomial to every
    membrane's data.  That common mode changes the data and the solution but
    not the sweeps or the error, which keeps runs with different seeds
    comparable.
    """

    name = "weiss-rect"
    radii = np.linspace(0.2, 0.9, 8)

    def __init__(self, seed, workdir):
        c = np.random.default_rng(seed).normal(0.0, 0.3, 5)

        def common(pts):
            x, y = pts[:, 0], pts[:, 1]
            return c[0] + c[1] * x + c[2] * y + c[3] * (x * x - y * y) + c[4] * x * y

        self.grid = Grid.rectangle(-1, 1, -1, 1, 1 / 32)
        self.grid.indexing()
        self.instances = []
        for rng_seed, spec in ((900, SPEC2), (901, SPEC3)):
            base = ordered_random_boundary(spec, np.random.default_rng(rng_seed))
            data = lambda pts, base=base: base(pts) + common(pts)[:, None]
            self.instances.append((spec, data))

    def batch(self):
        out = Outcome(stats={"solve_s": 0.0}, result=[])
        for spec, data in self.instances:
            out.ops += 1
            try:
                t0 = perf()
                sol = solver2d.solve(spec, self.grid, data, max_sweeps=60000)
                out.stats["solve_s"] += perf() - t0
                prof = analysis.weiss(sol, (0, 0), self.radii)
                c_q = analysis.calibrate_weiss_slack(sol, (0, 0), self.radii)
                out.result.append((sol, analysis.monotonicity_check(prof, c_q)))
            except Exception as exc:
                out.failures.append(f"N={spec.n_membranes}: {type(exc).__name__}: {exc}")
        return out

    def check(self, out):
        for sol, verdict in out.result:
            n = sol.n
            if not sol.meta["converged"]:
                out.failures.append(f"N={n}: not converged")
            elif _ordering_gap(sol.u) < 0.0:
                out.failures.append(f"N={n}: ordering violated")
            elif not verdict.ok:
                out.failures.append(f"N={n}: Weiss not monotone within slack")
        out.digest = _digest(sol.u.tobytes() for sol, _ in out.result)
        out.stats["sweeps"] = [sol.meta["sweeps"] for sol, _ in out.result]

    def references(self, first):
        refs = []
        for sol, _ in first.result:
            refs.append(
                reference.exact_solution(self.grid.role, self.grid.h, sol.spec.w, sol.spec.f, sol.u)
            )
        return refs

    def err_over_tol(self, first, refs):
        itr = self.grid.indexing()[0]
        return max(
            float(np.abs(sol.u[itr] - ref[itr]).max()) / sol.meta["tol"]
            for (sol, _), ref in zip(first.result, refs)
        )


def _run_cli(scenario_path, out_dir, outcome):
    outcome.ops += 1
    try:
        outcome.code = cli.run(str(scenario_path), str(out_dir))
    except Exception as exc:
        outcome.failures.append(f"{type(exc).__name__}: {exc}")


def _cli_failed(outcome):
    if outcome.failures:
        return True
    if outcome.code != 0:
        outcome.failures.append(f"cli exit code {outcome.code}")
        return True
    return False


class BlowupDisk:
    """The CLI ``blowup`` pipeline on one large disk: solve, write the
    solution CSV, fit the connected catalogue over shrinking balls.

    Why: the sweep count and the per-row gather/scatter dominate; N=2 takes
    the projection's special case, so projection rewrites should not move it
    while relaxation and cascade changes should.  The seed draws the small
    branch vector b of the profile data.
    """

    name = "blowup-disk"
    h = 1 / 40
    radii = [0.5, 0.35, 0.25, 0.18, 0.12, 0.09]

    def __init__(self, seed, workdir):
        cone = Cone1D(SPEC2, "L")
        b = exact1d.random_branch_vector(cone, np.random.default_rng(seed), scale=0.02)
        scenario = {
            "pipeline": "blowup",
            "problem": {"n": 2, "weights": [1.0, 1.0], "forces": [1.0, -1.0]},
            "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
            "h": self.h,
            "boundary": {"kind": "profile", "pattern": "L", "angle": 0.3,
                         "b": [float(x) for x in b.values]},
            "center": [0.0, 0.0],
            "radii": self.radii,
        }
        self.scenario = Path(workdir) / "blowup.json"
        self.scenario.write_text(json.dumps(scenario))
        self.out_dir = Path(workdir) / "blowup-out"

    def batch(self):
        out = Outcome()
        _run_cli(self.scenario, self.out_dir, out)
        return out

    def check(self, out):
        if _cli_failed(out):
            return
        manifest = json.loads((self.out_dir / "manifest.json").read_text())
        meta = json.loads((self.out_dir / "solution.json").read_text())["meta"]
        out.stats["solve_s"] = manifest["timings_s"]["solve_s"]
        out.stats["sweeps"] = meta["sweeps"]
        out.digest = _digest(
            (self.out_dir / name).read_bytes() for name in ("solution.csv", "blowup.csv")
        )
        table = np.loadtxt(self.out_dir / "solution.csv", delimiter=",", skiprows=1)
        role = Grid.disk(0.0, 0.0, 1.0, self.h).role
        nodes = table[:, 0].astype(np.int64)
        if not np.array_equal(nodes, np.flatnonzero(role.ravel() != 2)):
            out.failures.append("solution.csv nodes do not match the disk grid")
            return
        u = np.full((role.size, 2), np.nan)
        u[nodes] = table[:, 3:]
        out.result = (role, u, meta["tol"])
        if not meta["converged"]:
            out.failures.append("not converged")
        elif _ordering_gap(u) < 0.0:
            out.failures.append("ordering violated")

    def references(self, first):
        role, u, _ = first.result
        return reference.exact_solution(role, self.h, SPEC2.w, SPEC2.f, u)

    def err_over_tol(self, first, ref):
        role, u, tol = first.result
        itr = role.ravel() == 0
        return float(np.abs(u[itr] - ref[itr]).max()) / tol


class GameLattice:
    """The CLI ``game`` pipeline: Bellman value iteration, then Monte Carlo
    policy evaluation for tickets 1-3 at one probe on each side of the free
    boundary (one where the ticket values coincide, one where they differ).

    Why: the projection runs as a Jacobi update over all rows, and the Monte
    Carlo part touches neither the solver nor the projection.  The seed
    draws the Monte Carlo seed and a small rotation and shift of the cone
    data; the probes stay at fixed lattice nodes so the walk lengths, and
    with them the batch's work, stay comparable between seeds.
    """

    name = "game-lattice"
    h = 1 / 32
    tol = 1e-13
    probes = [[14, 24], [18, 8]]
    n_walks = 25000

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        scenario = {
            "pipeline": "game",
            "problem": {"n": 3, "weights": [1.0, 1.0, 1.0], "forces": [1.0, 0.2, -0.8]},
            "domain": {"kind": "rectangle", "x0": 0, "x1": 1, "y0": 0, "y1": 1},
            "h": self.h,
            "boundary": {"kind": "cone", "pattern": "LL",
                         "angle": 0.25 + float(rng.uniform(-0.05, 0.05)),
                         "shift": [0.5 + float(s) for s in rng.uniform(-self.h / 8, self.h / 8, 2)]},
            "probes": self.probes,
            "tickets": [1, 2, 3],
            "n_walks": self.n_walks,
            "seed": int(seed),
            "tol": self.tol,
        }
        self.scenario = Path(workdir) / "game.json"
        self.scenario.write_text(json.dumps(scenario))
        self.out_dir = Path(workdir) / "game-out"

    def batch(self):
        out = Outcome()
        # Keep the value table the pipeline computes: the CLI writes only the
        # probe values, and the check against the reference covers every node.
        inner = gamesim.bellman_solve
        tables = []

        def capture(*args, **kwargs):
            tables.append(inner(*args, **kwargs))
            return tables[-1]

        gamesim.bellman_solve = capture
        try:
            _run_cli(self.scenario, self.out_dir, out)
        finally:
            gamesim.bellman_solve = inner
        out.result = tables
        return out

    def check(self, out):
        if _cli_failed(out):
            return
        timings = json.loads((self.out_dir / "manifest.json").read_text())["timings_s"]
        records = json.loads((self.out_dir / "game.json").read_text())
        out.stats["bellman_s"] = timings["bellman_s"]
        out.stats["mc_s"] = sum(v for k, v in timings.items() if k.startswith("mc_"))
        out.stats["mc_walks"] = sum(r["n_walks"] for r in records)
        out.digest = _digest([(self.out_dir / "game.csv").read_bytes()])
        out.result = out.result[-1]
        out.stats["iterations"] = out.result.meta["iterations"]
        for r in records:
            if abs(r["mean"] - r["bellman"]) > 4.0 * r["se"] + 1e-12:
                out.failures.append(
                    f"node {r['node']} ticket {r['ticket']}: Monte Carlo {r['mean']:.6g} "
                    f"is more than 4 se from Bellman {r['bellman']:.6g}"
                )
        if _ordering_gap(out.result.v) < 0.0:
            out.failures.append("Bellman values not ordered")

    def references(self, first):
        game = first.result.game
        return reference.exact_solution(
            game.lattice.role, self.h, np.ones(3), SPEC3U.f, first.result.v
        )

    def err_over_tol(self, first, ref):
        """Bellman error over its tol; a gap above 1e-8 to the exact
        discrete solution fails the batch, as in criterion 13."""
        itr = first.result.game.lattice.role.ravel() == 0
        gap = float(np.abs(first.result.v[itr] - ref[itr]).max())
        if gap > 1e-8:
            first.failures.append(f"Bellman differs from the exact solution by {gap:.2e}")
        return gap / self.tol


class FitCatalogue:
    """``analysis.fit_cone`` over the connected catalogue, no solve.

    Why: ``analysis`` and ``exact1d`` (b_to_gamma, profile evaluation) do
    all the work, so angle-search and b_to_gamma changes show here and
    nowhere else.  The fields are analytic profiles of the all-'L' cone for
    N=3 and N=4 on h=1/64 with relative noise 2e-4 |x|^2; the seed draws the
    branch vector (orthogonal to the translation direction) and the
    rotation.  Five fits: N=3 at three radii, N=4 at two.  The degenerate
    two-cone assembly of criterion 11 must raise NotRegular.

    The checks are criterion 11's (angle within 2e-3, b within 10%), but
    criterion 11 fits one noise draw at r=0.6.  The fit error grows with the
    noise and as the radius shrinks: at criterion 11's noise level 1e-3 the
    r=0.3 fit missed the angle bound on 4 of 42 seeds (up to 3.2e-3) while
    noise-free fields fit within 6e-4.  At 2e-4 the largest errors over 42
    seeds are 1.0e-3 in angle and 3.5% in b, so a failed check points at the
    fit rather than at the noise draw.
    """

    name = "fit-catalogue"
    noise = 2e-4
    plan = ((SPEC3U, "LL", 0.05, (0.8, 0.5, 0.3)), (SPEC4, "LLL", 0.1, (0.65, 0.4)))

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        grid = Grid.rectangle(-1, 1, -1, 1, 1 / 64)
        coords = grid.coords()
        boundary = grid.indexing()[1]
        self.cases = []
        for spec, pattern, size, radii in self.plan:
            cone = Cone1D(spec, pattern)
            t_hat = exact1d.tau(cone).values
            t_hat = t_hat / np.linalg.norm(t_hat)
            basis = exact1d.branch_space_basis(cone)
            q = basis - np.outer(t_hat, t_hat @ basis)
            b = q @ rng.standard_normal(q.shape[1])
            b_true = exact1d.BranchVector(cone, b * (size / np.linalg.norm(b)))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            prof = exact1d.ApproximateProfile2D(
                cone, exact1d.zero_branch_vector(cone), b_true, theta
            )
            scale = (coords * coords).sum(axis=1)[:, None]
            vals = prof.eval(coords) + self.noise * scale * rng.uniform(
                -1, 1, (len(coords), spec.n_membranes)
            )
            sol = GridSolution2D(grid, spec, vals, vals[boundary])
            catalogue = [c for c in enumerate_cones(spec) if c.connected]
            self.cases.append((sol, catalogue, cone, b_true, theta, radii))
        dec = decompose_degenerate(Cone1D(SPEC2, "."))
        dprof = exact1d.build_degenerate_profile(dec, [0.0, 0.0], [(-0.5, 0.0), (0.5, 0.0)])
        dgrid = Grid.rectangle(-1, 1, -1, 1, 1 / 48)
        dvals = dprof.eval(dgrid.coords())
        self.degenerate = GridSolution2D(dgrid, SPEC2, dvals, dvals[dgrid.indexing()[1]])

    @staticmethod
    def _mirror(cone, fit, b_true, theta):
        """Angle and b error of a fit, allowing the mirror cone: the all-'R'
        cone turned by pi with swapped branch halves is the same field."""
        n = cone.n
        mirror = cone.pattern.translate(str.maketrans("LR", "RL"))
        if fit.cone_id == cone.id:
            d_theta, b = fit.angle - theta, fit.b.values
        elif fit.cone_id == Cone1D(cone.spec, mirror).id:
            d_theta = fit.angle - theta - np.pi
            b = np.concatenate([fit.b.values[n:], fit.b.values[:n]])
        else:
            return None
        d_theta = abs(float(np.angle(np.exp(1j * d_theta))))
        return d_theta, float(np.linalg.norm(b - b_true.values)) / b_true.norm()

    def batch(self):
        out = Outcome(stats={"fit_s": 0.0, "fits": 0}, result=[])
        for sol, catalogue, cone, b_true, theta, radii in self.cases:
            for r in radii:
                out.ops += 1
                try:
                    t0 = perf()
                    fit = analysis.fit_cone(sol, (0, 0), r, catalogue=catalogue)
                    out.stats["fit_s"] += perf() - t0
                except Exception as exc:
                    out.failures.append(f"N={cone.n} r={r}: {type(exc).__name__}: {exc}")
                    continue
                out.stats["fits"] += 1
                out.result.append((fit, cone, b_true, theta))
        out.ops += 1
        try:
            analysis.regular_point_probe(self.degenerate, (0, 0), radius=0.5)
            out.failures.append("degenerate assembly not flagged NotRegular")
        except NotRegular:
            pass
        except Exception as exc:
            out.failures.append(f"degenerate probe: {type(exc).__name__}: {exc}")
        return out

    def check(self, out):
        for fit, cone, b_true, theta in out.result:
            err = self._mirror(cone, fit, b_true, theta)
            if err is None:
                out.failures.append(f"N={cone.n} r={fit.radius}: fitted cone {fit.cone_id}")
            elif err[0] > 2e-3 or err[1] > 0.10:
                out.failures.append(
                    f"N={cone.n} r={fit.radius}: angle error {err[0]:.2e}, b error {err[1]:.3f}"
                )
        out.digest = _digest(
            np.array([fit.angle, fit.epsilon, *fit.b.values]).tobytes() for fit, *_ in out.result
        )

    def references(self, first):
        return None

    def err_over_tol(self, first, ref):
        """The generating profile misfits by at most the noise bound, so a
        fit's sup misfit over that bound is its error over tolerance; about 1
        for a fit that recovers the profile.  The median over the batch's
        fits: the largest one rides on the seed's noise draw (1.0 to 1.3
        between seeds, with the N=4 fits on top), the median stays within a
        few percent of 1 while a fit that misses the profile moves it."""
        return float(np.median([fit.epsilon for fit, *_ in first.result])) / self.noise


WORKLOADS = {w.name: w for w in (WeissRect, BlowupDisk, GameLattice, FitCatalogue)}
