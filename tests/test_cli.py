import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import membranes
from membranes import cli, solver2d
from membranes.errors import NoRegionFound, ScenarioError


def test_import_does_not_load_scipy():
    # Only a solve needs scipy's sparse LU; the cones and rate pipelines do not.
    code = "import sys, membranes.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(membranes.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "False"


def write_scenario(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


PROBLEM2 = {"n": 2, "weights": [1, 1], "forces": [1, -1]}
PROBLEM3 = {"n": 3, "weights": [1, 1, 1], "forces": [1, 0, -1]}
SOLVE = {
    "pipeline": "solve",
    "problem": PROBLEM2,
    "domain": {"kind": "disk", "center": [0, 0], "radius": 0.5},
    "h": 1 / 8,
    "boundary": {"kind": "cone", "pattern": "L"},
}
GAME = {
    "pipeline": "game",
    "problem": PROBLEM2,
    "domain": {"kind": "rectangle", "x0": 0, "x1": 1, "y0": 0, "y1": 1},
    "h": 1 / 8,
    "boundary": {"kind": "cone", "pattern": "L", "shift": [0.5, 0.5]},
    "probes": [[4, 4]],
    "n_walks": 100,
}

WEISS = {
    "pipeline": "weiss",
    "problem": PROBLEM2,
    "domain": {"kind": "rectangle", "x0": -1, "x1": 1, "y0": -1, "y1": 1},
    "h": 1 / 8,
    "boundary": {"kind": "cone", "pattern": "L"},
    "center": [0, 0],
    "radii": [0.3, 0.5, 0.7],
}
WEISS_DISK = dict(WEISS, domain={"kind": "disk", "center": [0, 0], "radius": 1})
BLOWUP = dict(WEISS, pipeline="blowup")
# Five radii over 2.5 decades: the least rate_fit accepts.
RATE = {"pipeline": "rate", "series": [[r, 0.1] for r in (1e-3, 1e-2, 0.03, 0.1, 0.3)]}
PROFILE = {"kind": "profile", "pattern": "L"}
# Not in B(p) of the cone "L": its left halves differ.
OFF_BRANCH = [0.01, -0.01, 0.005, -0.005]


SMALL_GAME = {
    "pipeline": "game",
    "problem": PROBLEM2,
    "domain": {"kind": "rectangle", "x0": 0, "x1": 1, "y0": 0, "y1": 1},
    "h": 1 / 8,
    "boundary": {"kind": "cone", "pattern": "L", "angle": 0.2, "shift": [0.5, 0.5]},
    "probes": [[4, 4]],
    "tickets": [1, 2],
    "n_walks": 2000,
    "seed": 7,
}


class TestValidation:
    def test_unknown_pipeline(self):
        assert cli.validate_scenario({"pipeline": "nope"})
        assert cli.validate_scenario([1, 2, 3])

    def test_pointer_paths(self):
        errs = cli.validate_scenario(
            {"pipeline": "solve", "problem": {"n": 2, "weights": [1, "x"], "forces": [1, -1]},
             "domain": {"kind": "disk", "center": [0, 0], "radius": 0.5},
             "h": 0.125, "boundary": {"kind": "cone", "pattern": "L"}}
        )
        assert any(e.startswith("/problem/weights/1") for e in errs)

    def test_missing_required(self):
        errs = cli.validate_scenario({"pipeline": "weiss", "problem": PROBLEM2})
        paths = {e.split(":")[0] for e in errs}
        assert {"/domain", "/h", "/boundary", "/center", "/radii"} <= paths

    def test_bad_forces(self):
        errs = cli.validate_scenario(
            {"pipeline": "cones", "problem": {"n": 2, "weights": [1, 1], "forces": [-1, 1]}}
        )
        assert any("/problem/forces" in e for e in errs)


    @pytest.mark.parametrize(
        "base, path, value",
        [
            (SOLVE, ("tol",), "abc"),
            (SOLVE, ("tol",), -1),
            (SOLVE, ("max_sweeps",), "5"),
            (SOLVE, ("domain", "radius"), -0.5),
            (SOLVE, ("problem", "n"), True),
            (SOLVE, ("boundary", "pattern"), 3),
            (GAME, ("tickets",), [0]),
            (GAME, ("seed",), "x"),
            (WEISS, ("radii",), []),
            (RATE, ("series", 0), [0.1]),
            (RATE, ("series", 0), [0.1, 0.2, 0.3]),
        ],
        ids=["tol-string", "tol-negative", "max-sweeps-string", "radius-negative",
             "n-boolean", "pattern-number", "ticket-zero", "seed-string", "radii-empty",
             "series-pair-short", "series-pair-long"],
    )
    def test_schema_rules_exit_2_without_outputs(self, tmp_path, capsys, base, path, value):
        scenario = copy.deepcopy(base)
        node = scenario
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        out = tmp_path / "out"
        assert cli.run(write_scenario(tmp_path, "s.json", scenario), out) == 2
        assert not out.exists()
        assert "/" + "/".join(map(str, path)) in capsys.readouterr().err


class TestRun:
    def test_cones_pipeline(self, tmp_path):
        scen = write_scenario(tmp_path, "c.json", {"pipeline": "cones", "problem": PROBLEM3})
        out = tmp_path / "out"
        assert cli.run(scen, out) == 0
        entries = json.loads((out / "cones.json").read_text())
        assert len(entries) == 9
        assert sum(e["connected"] for e in entries) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pipeline"] == "cones"
        assert "scenario_sha256" in manifest

    def test_malformed_no_partial_outputs(self, tmp_path):
        scen = write_scenario(tmp_path, "bad.json", {"pipeline": "solve", "problem": PROBLEM2})
        out = tmp_path / "out_bad"
        assert cli.run(scen, out) == 2
        assert not out.exists()

    def test_manifest_version(self, tmp_path):
        scen = write_scenario(tmp_path, "c.json", {"pipeline": "cones", "problem": PROBLEM2})
        assert cli.run(scen, tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["versions"]["membranes"] == membranes.__version__
        assert "threads" not in manifest

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "nojson.json"
        path.write_text("{not json")
        assert cli.run(path, tmp_path / "o") == 2

    def test_solve_disk(self, tmp_path):
        scen = write_scenario(
            tmp_path,
            "solve.json",
            {
                "pipeline": "solve",
                "problem": PROBLEM2,
                "domain": {"kind": "disk", "center": [0, 0], "radius": 0.5},
                "h": 1 / 32,
                "boundary": {"kind": "cone", "pattern": "L", "angle": 0.3},
            },
        )
        out = tmp_path / "out_solve"
        assert cli.run(scen, out) == 0
        header = json.loads((out / "solution.json").read_text())
        assert header["residual"]["kkt_residual"] < 1e-6
        assert (out / "solution.csv").exists()

    def test_not_converged_exit_3(self, tmp_path):
        scen = write_scenario(
            tmp_path,
            "nc.json",
            {
                "pipeline": "solve",
                "problem": PROBLEM2,
                "domain": {"kind": "rectangle", "x0": 0, "x1": 1, "y0": 0, "y1": 1},
                "h": 1 / 16,
                "boundary": {"kind": "cone", "pattern": "L", "shift": [0.5, 0.5]},
                "max_sweeps": 2,
            },
        )
        assert cli.run(scen, tmp_path / "out_nc") == 3

    def test_not_converged_header_is_strict_json(self, tmp_path):
        scenario = dict(SOLVE, max_sweeps=2)
        assert cli.run(write_scenario(tmp_path, "nc.json", scenario), tmp_path / "o") == 3

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "o" / "solution.json").read_text()
        meta = json.loads(text, parse_constant=reject)["meta"]
        assert meta["error_bound"] is None and meta["converged"] is False

    def test_game_max_sweeps_exit_3(self, tmp_path, capsys):
        scenario = dict(GAME, max_sweeps=3)
        assert cli.run(write_scenario(tmp_path, "nc.json", scenario), tmp_path / "o") == 3
        assert "NotConverged" in capsys.readouterr().err

    def test_game_manifest_records_bellman_tol(self, tmp_path):
        assert cli.run(write_scenario(tmp_path, "g.json", dict(GAME, tol=1e-12)), tmp_path / "o") == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["tolerances"] == {"bellman_tol": 1e-12}

    def test_reproducible_outputs(self, tmp_path):
        scen = write_scenario(tmp_path, "game.json", SMALL_GAME)
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert cli.run(scen, out1) == 0
        assert cli.run(scen, out2) == 0
        assert (out1 / "game.csv").read_bytes() == (out2 / "game.csv").read_bytes()
        # The digest of the per-ticket walks that one shared walk replaced.
        digest = hashlib.sha256((out1 / "game.csv").read_bytes()).hexdigest()
        assert digest == "69c56331301fd954c314c991e5084898a0d74cd64b15e6e94972a1fab7933dcf"
        records = json.loads((out1 / "game.json").read_text())
        for rec in records:
            assert abs(rec["mean"] - rec["bellman"]) <= 4 * rec["se"] + 1e-12

    def test_rate_pipeline(self, tmp_path):
        rs = np.geomspace(1e-4, 0.5, 8)
        scen = write_scenario(
            tmp_path,
            "rate.json",
            {"pipeline": "rate", "series": [[float(r), float(1 / -np.log(r))] for r in rs]},
        )
        out = tmp_path / "out_rate"
        assert cli.run(scen, out) == 0
        rate = json.loads((out / "rate.json").read_text())
        assert rate["preferred"] == "log"

    def test_blowup_pipeline(self, tmp_path):
        scen = write_scenario(
            tmp_path,
            "blowup.json",
            {
                "pipeline": "blowup",
                "problem": PROBLEM2,
                "domain": {"kind": "rectangle", "x0": -1, "x1": 1, "y0": -1, "y1": 1},
                "h": 1 / 32,
                "boundary": {"kind": "cone", "pattern": "L", "angle": 0.3},
                "center": [0, 0],
                "radii": [0.5, 0.35, 0.25],
            },
        )
        out = tmp_path / "out_blowup"
        assert cli.run(scen, out) == 0
        lines = (out / "blowup.csv").read_text().splitlines()
        assert lines[0] == "r,epsilon"
        assert len(lines) == 4
        fits = json.loads((out / "blowup.json").read_text())
        assert all(f["epsilon"] < 1e-2 for f in fits)
        # Too few radii for a rate fit; reported as skipped, not an error.
        rate = json.loads((out / "rate.json").read_text())
        assert "skipped" in rate

    def test_weiss_pipeline(self, tmp_path):
        scen = write_scenario(
            tmp_path,
            "weiss.json",
            {
                "pipeline": "weiss",
                "problem": PROBLEM2,
                "domain": {"kind": "rectangle", "x0": -1, "x1": 1, "y0": -1, "y1": 1},
                "h": 1 / 32,
                "boundary": {"kind": "cone", "pattern": "L", "angle": 0.1},
                "center": [0, 0],
                "radii": [0.3, 0.5, 0.7, 0.9],
            },
        )
        out = tmp_path / "out_weiss"
        assert cli.run(scen, out) == 0
        lines = (out / "weiss.csv").read_text().splitlines()
        assert lines[0] == "r,E,F,W"
        assert len(lines) == 5
        info = json.loads((out / "weiss.json").read_text())
        assert info["monotone_within_slack"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "weiss_slack_cq" in manifest["tolerances"]
        assert "solve_tol" in manifest["tolerances"]


class TestMain:
    def test_pipeline_mismatch(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, "c.json", {"pipeline": "cones", "problem": PROBLEM2})
        assert cli.main(["solve", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 2

    def test_cones_main(self, tmp_path):
        scen = write_scenario(tmp_path, "c.json", {"pipeline": "cones", "problem": PROBLEM2})
        assert cli.main(["cones", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "base, path, value, pointer",
        [
            (GAME, ("tickets",), [1, 5], "/tickets/1"),
            (GAME, ("probes",), [[40, 4]], "/probes/0"),
            (GAME, ("probes",), [[0, 4]], "/probes/0"),
            (GAME, ("probes",), [[4]], "/probes/0"),
            (GAME, ("problem", "weights"), [1, 2], "/problem/weights"),
            (SOLVE, ("boundary", "pattern"), "LL", "/boundary/pattern"),
            (SOLVE, ("boundary", "pattern"), "X", "/boundary/pattern"),
            (GAME, ("h",), 0.3, "/h"),
            (GAME, ("h",), 1.0, "/h"),
            (SOLVE, ("domain", "center"), [0.0], "/domain/center"),
            (GAME, ("domain", "x1"), -1, "/domain/x1"),
            (GAME, ("boundary", "shift"), [0.5], "/boundary/shift"),
            (SOLVE, ("boundary", "kind"), "profile", "/boundary/b"),
            (WEISS, ("radii",), [0.3, 0.5, 1.5], "/radii/2"),
            (WEISS_DISK, ("radii",), [0.3, 0.5, 0.98], "/radii/2"),
            (WEISS, ("radii",), [0.3, 0.5], "/radii"),
            (SOLVE, ("boundary",), dict(PROFILE, b=OFF_BRANCH), "/boundary/b"),
            (SOLVE, ("boundary",), dict(PROFILE, b=[0, 0, 0, 0], b0=OFF_BRANCH), "/boundary/b0"),
            (RATE, ("series",), RATE["series"][:4], "/series"),
            (RATE, ("series", 2, 1), 0.0, "/series"),
            (RATE, ("series", 0, 0), 0.005, "/series"),
            (BLOWUP, ("center",), [5, 5], "/radii/0"),
            (BLOWUP, ("center",), [1e308, 0], "/radii/0"),
            (dict(BLOWUP, center=[0.05, 0.05]), ("radii",), [0.3, 0.01], "/radii/1"),
            (BLOWUP, ("radii",), [0.3, 50.0], "/radii/1"),
        ],
        ids=["ticket-above-n", "probe-off-lattice", "probe-on-boundary", "probe-short",
             "game-weights", "pattern-length", "pattern-character", "h-not-dividing",
             "no-interior", "disk-center-length", "empty-extent", "shift-length",
             "profile-without-b", "weiss-ball-off-rectangle", "weiss-ball-off-disk",
             "weiss-two-radii", "profile-b-off-branch-space", "profile-b0-off-branch-space",
             "rate-four-radii", "rate-zero-epsilon", "rate-short-span", "blowup-ball-off-grid",
             "blowup-center-overflows", "blowup-ball-between-nodes", "blowup-radius-past-box"],
    )
    def test_main_preflight_exit_2_without_outputs(self, tmp_path, capsys, base, path, value, pointer):
        scenario = copy.deepcopy(base)
        node = scenario
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        scen = write_scenario(tmp_path, "s.json", scenario)
        out = tmp_path / "o"
        argv = [scenario["pipeline"], "--scenario", str(scen), "--out", str(out)]
        assert cli.main(argv) == 2
        assert not out.exists()
        assert f"scenario error at {pointer}:" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [ValueError, NoRegionFound])
    def test_main_preflight_bug_propagates_without_outputs(self, tmp_path, monkeypatch, error):
        # Only an InvalidInput is a scenario error; anything else is a bug.
        def broken(*args):
            raise error("bug")

        monkeypatch.setattr(solver2d, "dirichlet_values", broken)
        scen = write_scenario(tmp_path, "s.json", SOLVE)
        out = tmp_path / "o"
        with pytest.raises(error, match="bug"):
            cli.main(["solve", "--scenario", str(scen), "--out", str(out)])
        assert not out.exists()

    def test_main_rejects_repeated_probe_without_outputs(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, "g.json", dict(GAME, probes=[[4, 4], [3, 4], [4, 4]]))
        out = tmp_path / "o"
        assert cli.main(["game", "--scenario", str(scen), "--out", str(out)]) == 2
        assert not out.exists()
        assert "scenario error at /probes/2: [4, 4] repeats /probes/0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "problem",
        [{"n": 2, "weights": [1e308, 1e308], "forces": [2, 1]},
         {"n": 2, "weights": [1, 1], "forces": [1.7e308, 1.6e308]}],
        ids=["weight-sum", "weighted-force-sum"],
    )
    def test_main_overflowing_problem_exit_2_without_warning(self, tmp_path, capsys, problem):
        scen = write_scenario(tmp_path, "s.json", dict(SOLVE, problem=problem))
        out = tmp_path / "o"
        assert cli.main(["solve", "--scenario", str(scen), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "scenario error at /problem:" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "domain",
        [{"kind": "rectangle", "x0": -1e308, "x1": 1e308, "y0": 0, "y1": 1},
         {"kind": "disk", "center": [0, 0], "radius": 1e308}],
        ids=["rectangle", "disk"],
    )
    def test_main_overflowing_extent_exit_2_without_outputs(self, tmp_path, capsys, domain):
        scen = write_scenario(tmp_path, "s.json", dict(SOLVE, domain=domain))
        out = tmp_path / "o"
        assert cli.main(["solve", "--scenario", str(scen), "--out", str(out)]) == 2
        assert not out.exists()
        assert "scenario error at /h:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, seed", [("scenario", -1), ("flag", -1), ("scenario", 2**64)],
        ids=["scenario-negative", "flag-negative", "scenario-2^64"],
    )
    def test_game_takes_any_integer_seed(self, tmp_path, where, seed):
        scenario = dict(SMALL_GAME, n_walks=200)
        argv = ["game", "--out", str(tmp_path / "o")]
        if where == "flag":
            argv += ["--seed", str(seed)]
        else:
            scenario["seed"] = seed
        argv += ["--scenario", str(write_scenario(tmp_path, "g.json", scenario))]
        assert cli.main(argv) == 0
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["seed"] == seed

    def test_game_without_tickets(self, tmp_path):
        scen = write_scenario(tmp_path, "g.json", dict(SMALL_GAME, tickets=[]))
        assert cli.main(["game", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "game.csv").read_text() == "node,ticket,bellman,mean,se\n"

    def test_game_seed_is_taken_mod_2_64(self, tmp_path):
        csv = {}
        for seed in (-1, 2**64 - 1):
            scenario = dict(SMALL_GAME, n_walks=200, seed=seed)
            scen = write_scenario(tmp_path, f"{seed}.json", scenario)
            out = tmp_path / str(seed)
            assert cli.main(["game", "--scenario", str(scen), "--out", str(out)]) == 0
            csv[seed] = (out / "game.csv").read_bytes()
        assert csv[-1] == csv[2**64 - 1]

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_main_rejects_bad_tol_without_outputs(self, tmp_path, capsys, tol):
        scen = write_scenario(tmp_path, "s.json", SOLVE)
        out = tmp_path / "o"
        assert cli.main(["solve", "--scenario", str(scen), "--out", str(out), "--tol", tol]) == 2
        assert not out.exists()
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[1, 2]", json.dumps({"pipeline": "cones", "problem": PROBLEM2})],
        ids=["invalid-json", "top-level-array", "pipeline-mismatch"],
    )
    def test_main_rejects_without_outputs(self, tmp_path, text):
        scen = tmp_path / "s.json"
        scen.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["solve", "--scenario", str(scen), "--out", str(out)]) == 2
        assert not out.exists()


# Any JSON value, with the schema's own keys and words mixed into the objects.
_WORDS = st.sampled_from(
    ["pipeline", "problem", "n", "weights", "forces", "domain", "kind", "h", "boundary",
     "pattern", "center", "radii", "probes", "tickets", "n_walks", "seed", "series",
     "game", "solve", "rect", "rectangle", "disk", "interval", "cone", "profile", "L"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _WORDS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_WORDS | st.text(max_size=3), inner, max_size=6),
    max_leaves=25,
)

# Schema-shaped scenarios whose values are mostly right.  Extents and h lie
# in [1/16, 4] or are 1e-300 or 1e308, so a lattice has at most a few
# thousand nodes or a node count that collapses to one or overflows.
_NUM = st.integers(-3, 3) | st.floats(-3, 3) | st.sampled_from([1e308, -1e308, 1e-300])
_POS = st.sampled_from([1 / 16, 1 / 8, 0.25, 0.3, 0.5, 1.0, 1e-300, 1e308]) | st.floats(0.0625, 4)


@st.composite
def _scenarios(draw):
    n = draw(st.integers(1, 4))
    forces = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n, unique=True))
    lo = draw(_NUM)
    scenario = {
        "pipeline": draw(st.sampled_from(cli.PIPELINES)),
        "problem": {"n": n, "weights": draw(st.lists(_POS, min_size=n, max_size=n)),
                    "forces": sorted(forces, reverse=True)},
        "domain": draw(st.sampled_from([
            {"kind": "interval", "lo": lo, "hi": lo + draw(_POS)},
            {"kind": "rectangle", "x0": lo, "x1": lo + draw(_POS), "y0": lo, "y1": lo + draw(_POS)},
            {"kind": "disk", "center": [draw(_NUM), draw(_NUM)], "radius": draw(_POS)},
        ])),
        "h": draw(_POS),
        "boundary": {"kind": draw(st.sampled_from(["cone", "profile"])),
                     "pattern": draw(st.text("LRX", max_size=4)),
                     "angle": draw(_NUM),
                     "b": draw(st.lists(_NUM, max_size=8)),
                     "shift": draw(st.lists(_NUM, max_size=3))},
        "center": draw(st.lists(_NUM, max_size=3)),
        "radii": draw(st.lists(_POS, max_size=3)),
        "probes": draw(st.lists(st.lists(st.integers(-2, 40), max_size=3), max_size=3)),
        "tickets": draw(st.lists(st.integers(1, 5), max_size=3)),
        "n_walks": draw(st.integers(1, 10)),
        "seed": draw(st.integers()),
        "series": draw(st.lists(st.lists(_POS, min_size=2, max_size=2), max_size=3)),
    }
    for key in draw(st.sets(st.sampled_from(["angle", "b", "shift"]))):
        del scenario["boundary"][key]
    for key in draw(st.sets(st.sampled_from(["boundary", "center", "radii", "tickets", "series"]))):
        del scenario[key]
    return scenario


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(obj=_JSON | st.dictionaries(_WORDS, _JSON, max_size=8))
    def test_any_json_value_gives_an_error_list(self, obj):
        errors = cli.validate_scenario(obj)
        assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(scenario=_scenarios())
    def test_valid_scenario_is_prepared_or_rejected(self, scenario):
        assume(cli.validate_scenario(scenario) == [])
        try:
            cli._prepare(scenario)
        except ScenarioError as exc:
            assert exc.messages
