"""Scenario runner: load a JSON scenario, execute its pipeline, write CSV and
JSON artifacts plus a manifest recording inputs, versions and timings.

Exit codes: 0 success, 2 scenario validation error, 3 solver not converged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, analysis, cones1d, exact1d, gamesim, solver2d
from .errors import InvalidInput, MembraneError, ScenarioError
from .problem import ProblemSpec, normalize

PIPELINES = ("cones", "solve", "weiss", "blowup", "game", "rate")


def _schema():
    with resources.files("membranes.schemas").joinpath("scenario_schema.json").open() as fh:
        return json.load(fh)


def validate_scenario(obj):
    """Schema validation; returns a list of 'json-pointer: message' strings."""
    schema = _schema()
    errors = _schema_errors(obj, schema, "")
    if not errors:  # the pipeline is valid, so its required keys are known
        required = schema["pipeline_requirements"][obj["pipeline"]]
        errors = _schema_errors(obj, {"required": required}, "")
    return errors or _semantic_errors(obj)


_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and np.isfinite(x)),
}


def _schema_errors(value, schema, path):
    """Check ``value`` against the JSON Schema keywords scenario_schema.json
    uses: type, enum, minimum, exclusiveMinimum, minItems, maxItems, required,
    properties, items."""
    where = path or "/"
    kind = schema.get("type")
    if kind is not None and not _JSON_TYPES[kind](value):
        return [f"{where}: expected {'an' if kind[0] in 'aeiou' else 'a'} {kind}"]
    if "enum" in schema and value not in schema["enum"]:
        return [f"{where}: expected one of {schema['enum']}, got {value!r}"]
    if "minimum" in schema and value < schema["minimum"]:
        return [f"{where}: expected a value >= {schema['minimum']}"]
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        return [f"{where}: expected a value > {schema['exclusiveMinimum']}"]
    if "minItems" in schema and len(value) < schema["minItems"]:
        return [f"{where}: expected at least {schema['minItems']} items"]
    if "maxItems" in schema and len(value) > schema["maxItems"]:
        return [f"{where}: expected at most {schema['maxItems']} items"]
    errors = [f"{path}/{key}: required" for key in schema.get("required", ()) if key not in value]
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            errors += _schema_errors(value[key], sub, f"{path}/{key}")
    if "items" in schema:
        for i, item in enumerate(value):
            errors += _schema_errors(item, schema["items"], f"{path}/{i}")
    return errors


_DOMAIN_KEYS = {
    "interval": ("lo", "hi"),
    "rectangle": ("x0", "x1", "y0", "y1"),
    "disk": ("center", "radius"),
}


def _semantic_errors(obj):
    """The rules for a schema-valid scenario that the schema cannot state."""
    errors = []
    if "problem" in obj:
        p = obj["problem"]
        for key in ("weights", "forces"):
            if len(p[key]) != p["n"]:
                errors.append(f"/problem/{key}: expected an array of {p['n']} numbers")
        f = p["forces"]
        if not errors and any(f[i] <= f[i + 1] for i in range(len(f) - 1)):
            errors.append("/problem/forces: entries must be strictly decreasing")
    if "domain" in obj:
        domain = obj["domain"]
        kind = domain["kind"]
        missing = [key for key in _DOMAIN_KEYS[kind] if key not in domain]
        errors += [f"/domain/{key}: required for kind {kind!r}" for key in missing]
        if kind == "disk" and "center" not in missing and len(domain["center"]) != 2:
            errors.append("/domain/center: expected 2 numbers")
        elif kind != "disk" and not missing:
            keys = _DOMAIN_KEYS[kind]
            for lo, hi in zip(keys[0::2], keys[1::2]):
                if domain[hi] <= domain[lo]:
                    errors.append(f"/domain/{hi}: expected a value > {lo}")
    if obj.get("boundary", {}).get("kind") == "profile" and "b" not in obj["boundary"]:
        errors.append("/boundary/b: required for kind 'profile'")
    if obj.get("pipeline") == "weiss" and len(obj["radii"]) < 3:
        errors.append("/radii: the monotonicity check needs at least 3 radii")
    return errors


def _build_grid(domain, h):
    kind = domain["kind"]
    if kind == "interval":
        return solver2d.Grid.interval(domain["lo"], domain["hi"], h)
    if kind == "rectangle":
        return solver2d.Grid.rectangle(domain["x0"], domain["x1"], domain["y0"], domain["y1"], h)
    cx, cy = domain["center"]
    return solver2d.Grid.disk(cx, cy, domain["radius"], h)


def _build_boundary(cone, boundary, dimension):
    shift = np.asarray(boundary.get("shift", [0.0, 0.0][:dimension]), dtype=float)
    angle = float(boundary.get("angle", 0.0))
    if boundary["kind"] == "cone":
        if dimension == 1:
            return lambda pts: cone.eval(pts[:, 0] - shift[0])
        return lambda pts: cone.eval_2d(pts - shift, angle)
    zero = [0.0] * (2 * cone.n)
    b1, b0 = (exact1d.BranchVector(cone, boundary.get(key, zero)) for key in ("b", "b0"))
    for key, b in (("b", b1), ("b0", b0)):
        if not b.is_member():
            raise ScenarioError(f"/boundary/{key}: not in the branch space of cone {cone.pattern}")
    prof = exact1d.ApproximateProfile2D(cone, b0, b1, angle)
    if dimension == 1:
        sol = exact1d.solution_for(cone, b0)
        return lambda pts: sol.eval(pts[:, 0] - shift[0])
    return lambda pts: prof.eval(pts - shift)


def _at(pointer, build, *args):
    """``build(*args)``, with an InvalidInput it raises reported as a
    ScenarioError at ``pointer``; any other exception propagates."""
    try:
        return build(*args)
    except InvalidInput as exc:
        raise ScenarioError(f"{pointer}: {exc}") from exc


def _prepare(scenario):
    """Build the spec, grid and Dirichlet values a schema-valid scenario asks
    for, and check the values that must fit them, before any output exists.

    Returns (spec, grid, gvals), None for what the pipeline does not use;
    raises ScenarioError with JSON pointers.
    """
    pipeline = scenario["pipeline"]
    if pipeline == "rate":
        _at("/series", analysis.rate_fit, scenario["series"])
        return None, None, None
    spec = _at("/problem", lambda: normalize(ProblemSpec.from_dict(scenario["problem"])))
    if pipeline == "cones":
        return spec, None, None
    n = spec.n_membranes
    boundary = scenario["boundary"]
    cone = _at("/boundary/pattern", cones1d.Cone1D, spec, boundary["pattern"])
    grid = _at("/h", lambda: _build_grid(scenario["domain"], scenario["h"]))
    _at("/h", grid.indexing)
    d = grid.dimension
    errors = []
    if len(boundary.get("shift", [0.0] * d)) != d:
        errors.append(f"/boundary/shift: expected {d} numbers")
    if pipeline in ("weiss", "blowup") and len(scenario["center"]) < d:
        errors.append(f"/center: expected {d} numbers")
    if pipeline == "game":
        if any(abs(w - 1.0) > 1e-12 for w in spec.weights):
            errors.append("/problem/weights: the game needs unit weights")
        for i, ticket in enumerate(scenario.get("tickets", [1])):
            if ticket > n:
                errors.append(f"/tickets/{i}: ticket {ticket} is not in [1, {n}]")
        first = {}
        for i, probe in enumerate(scenario["probes"]):
            inside = len(probe) == d and all(0 <= p < m for p, m in zip(probe, grid.shape))
            if not inside or grid.role[tuple(probe)] != solver2d.INTERIOR:
                errors.append(f"/probes/{i}: {probe} is not an interior node of the lattice")
            elif tuple(probe) in first:
                errors.append(f"/probes/{i}: {probe} repeats /probes/{first[tuple(probe)]}")
            first.setdefault(tuple(probe), i)
    if errors:
        raise ScenarioError(errors)
    ball_check = {"weiss": analysis.check_ball_inside, "blowup": analysis.ball_nodes}
    if pipeline in ball_check:
        for i, r in enumerate(scenario["radii"]):
            _at(f"/radii/{i}", ball_check[pipeline], grid, scenario["center"][:d], r)
    data = _at("/boundary", _build_boundary, cone, boundary, d)
    gvals = _at("/boundary", solver2d.dirichlet_values, grid, data, n)
    return spec, grid, gvals


def _report(messages):
    for e in messages:
        print(f"scenario error at {e}", file=sys.stderr)


def _fmt(x):
    return f"{float(x):.17g}"


def run(scenario_path, out_dir, seed=None, tol=None, command=None):
    """Execute the scenario's pipeline and write artifacts plus manifest.

    ``command`` is the CLI subcommand, when there is one; the scenario's
    pipeline must match it.
    """
    t_start = time.perf_counter()
    try:
        raw = Path(scenario_path).read_bytes()
        scenario = json.loads(raw)
    except (OSError, ValueError) as exc:
        print(f"scenario is not readable JSON: {exc}", file=sys.stderr)
        return 2
    errors = validate_scenario(scenario)
    if not errors and command not in (None, scenario["pipeline"]):
        errors = [f"/pipeline: {scenario['pipeline']!r} does not match subcommand {command!r}"]
    if tol is not None and not 0.0 <= tol < np.inf:
        print(f"--tol: expected a finite number >= 0, got {tol}", file=sys.stderr)
        return 2
    if errors:
        _report(errors)
        return 2
    try:
        spec, grid, gvals = _prepare(scenario)
    except ScenarioError as exc:
        _report(exc.messages)
        return 2

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline = scenario["pipeline"]
    if pipeline not in ("cones", "rate"):
        # Loaded before any timer, so that solve_s and bellman_s time only
        # the solve and not the import in solver2d._harmonic_extension.
        import scipy.sparse.linalg  # noqa: F401
    if seed is None:
        seed = scenario.get("seed", 0)
    timings = {}
    outputs = []
    tolerances = {}
    exit_code = 0

    try:
        if pipeline == "cones":
            entries = cones1d.catalogue_json(spec)
            _write_json(out / "cones.json", entries)
            print(json.dumps(entries, indent=2, sort_keys=True))
            outputs.append("cones.json")
        elif pipeline in ("solve", "weiss", "blowup"):
            t0 = time.perf_counter()
            sol = solver2d.solve(
                spec,
                grid,
                gvals,
                tol=tol if tol is not None else scenario.get("tol"),
                max_sweeps=scenario.get("max_sweeps"),
            )
            timings["solve_s"] = time.perf_counter() - t0
            tolerances["solve_tol"] = sol.meta["tol"]
            solver2d.save_solution_csv(sol, out / "solution.csv", out / "solution.json")
            outputs += ["solution.csv", "solution.json"]
            if not sol.meta["converged"]:
                exit_code = 3
            if pipeline == "weiss" and exit_code == 0:
                center = tuple(scenario["center"])[: grid.dimension]
                radii = np.asarray(scenario["radii"], dtype=float)
                prof = analysis.weiss(sol, center, radii)
                prof.to_csv(out / "weiss.csv")
                c_q = analysis.calibrate_weiss_slack(sol, center, radii)
                verdict = analysis.monotonicity_check(prof, c_q)
                tolerances["weiss_slack_cq"] = c_q
                _write_json(
                    out / "weiss.json",
                    {
                        "monotone_within_slack": verdict.ok,
                        "worst_violation": verdict.worst_violation,
                        "c_q": c_q,
                    },
                )
                outputs += ["weiss.csv", "weiss.json"]
            if pipeline == "blowup" and exit_code == 0:
                center = tuple(scenario["center"])[: grid.dimension]
                series = []
                fits = []
                catalogue = [c for c in cones1d.enumerate_cones(spec) if c.connected]
                for r in sorted(scenario["radii"], reverse=True):
                    fit = analysis.fit_cone(sol, center, float(r), catalogue=catalogue)
                    series.append((float(r), fit.epsilon))
                    fits.append(fit.as_dict())
                with open(out / "blowup.csv", "w") as fh:
                    fh.write("r,epsilon\n")
                    for r, e in series:
                        fh.write(f"{_fmt(r)},{_fmt(e)}\n")
                _write_json(out / "blowup.json", fits)
                outputs += ["blowup.csv", "blowup.json"]
                try:
                    rf = analysis.rate_fit(series)
                    _write_json(out / "rate.json", rf.as_dict())
                except InvalidInput as exc:
                    _write_json(out / "rate.json", {"skipped": str(exc)})
                outputs.append("rate.json")
        elif pipeline == "game":
            game = gamesim.membrane_game(spec, grid, gvals)
            _write_json(out / "game_spec.json", game.as_dict())
            outputs.append("game_spec.json")
            t0 = time.perf_counter()
            vt = gamesim.bellman_solve(
                game,
                tol=tol if tol is not None else scenario.get("tol"),
                max_iters=scenario.get("max_sweeps"),
            )
            timings["bellman_s"] = time.perf_counter() - t0
            tolerances["bellman_tol"] = vt.meta["tol"]
            records = []
            n_walks = scenario["n_walks"]
            tickets = scenario.get("tickets", [1])
            shape = grid.shape
            for probe in scenario["probes"]:
                node = int(np.ravel_multi_index(tuple(probe), shape))
                t1 = time.perf_counter()
                estimates = gamesim.monte_carlo_eval(game, vt, node, tickets, n_walks, seed)
                timings[f"mc_{node}_s"] = time.perf_counter() - t1
                for ticket, (mean, se) in zip(tickets, estimates):
                    records.append(
                        {
                            "node": node,
                            "ticket": ticket,
                            "bellman": float(vt.v[node, ticket - 1]),
                            "mean": mean,
                            "se": se,
                            "n_walks": n_walks,
                            "seed": seed,
                        }
                    )
            _write_json(out / "game.json", records)
            with open(out / "game.csv", "w") as fh:
                fh.write("node,ticket,bellman,mean,se\n")
                for r in records:
                    fh.write(
                        f"{r['node']},{r['ticket']},{_fmt(r['bellman'])},{_fmt(r['mean'])},{_fmt(r['se'])}\n"
                    )
            outputs += ["game.json", "game.csv"]
        elif pipeline == "rate":
            rf = analysis.rate_fit(scenario["series"])
            _write_json(out / "rate.json", rf.as_dict())
            rf.to_csv(out / "rate.csv")
            outputs += ["rate.json", "rate.csv"]
    except MembraneError as exc:
        print(f"pipeline failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    manifest = {
        "pipeline": pipeline,
        "scenario_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "versions": {
            "membranes": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "tolerances": tolerances,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "total_s": round(time.perf_counter() - t_start, 6),
        "outputs": outputs,
    }
    _write_json(out / "manifest.json", manifest)
    return exit_code


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="membranes",
        description="Solve and analyze the N-membrane problem with constant forces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PIPELINES:
        p = sub.add_parser(name, help=f"run a {name!r} scenario")
        p.add_argument("--scenario", required=True, help="path to the scenario JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    return run(args.scenario, args.out, seed=args.seed, tol=args.tol, command=args.command)


if __name__ == "__main__":
    sys.exit(main())
