"""In-memory tracer for the benchmark's traced run.

Wrappers are installed at the names callers bind (module attributes and one
class attribute), so the program's own code is unchanged.  Operation-level
calls (a solve, a fit, a pipeline run) become spans with an id, the id of the
span that caused them and the id of the benchmark operation they belong to.
Hot calls (the projection, the Monte Carlo RNG, profile evaluation and
b_to_gamma) are too frequent for one span each; their counts and times are
aggregated onto the enclosing span instead.

Every wrapped call's duration is split into self time, charged to its layer,
and child time, charged to the wrapped calls inside it.  The tracer's own
bookkeeping is charged to the "trace" layer, so that the layer self times and
the benchmark's own remainder add up to the traced wall time exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # finished span records
        self.stack = []  # open frames: [start, child_s, span_id, agg]
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(float)
        self.op_id = None
        self.wall_s = 0.0  # summed duration of root spans
        self._next_id = 0
        self._installed = []

    # -- frames -------------------------------------------------------------

    def _call(self, layer, name, fn, post, hot, args, kwargs):
        t0 = perf()
        frame = [t0, 0.0, None, None]
        if not hot:
            frame[2] = self._next_id
            frame[3] = {}
            self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(frame)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
        finally:
            t1 = perf()
            self.stack.pop()
            dur = t1 - t0
            self_s = dur - frame[1]
            self.layer_self[layer] += self_s
            self.counts[f"{name}.calls"] += 1
            self.counts[f"{name}.s"] += dur
            self.counts[f"{name}.self_s"] += self_s
            span = self._nearest_span()
            if hot:
                if span is not None:
                    entry = span[3].setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += dur
            else:
                self.spans.append(
                    {
                        "id": frame[2],
                        "parent": None if span is None else span[2],
                        "op": self.op_id,
                        "layer": layer,
                        "name": name,
                        "start": t0,
                        "end": t1,
                        "self_s": self_s,
                        "ok": ok,
                        "agg": frame[3],
                    }
                )
            if ok and post is not None:
                post(self, out, args, kwargs, dur)
            t2 = perf()
            self.layer_self["trace"] += t2 - t1
            if parent is not None:
                parent[1] += t2 - t0
            else:
                self.wall_s += t2 - t0
        return out

    def _nearest_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame
        return None

    def root(self, op_id, fn):
        """Run one benchmark batch as a root span; every span inside it
        carries ``op_id`` as its operation id."""
        self.op_id = op_id
        try:
            return self._call("bench", "batch", fn, None, False, (), {})
        finally:
            self.op_id = None

    # -- installation -------------------------------------------------------

    def wrap(self, owner, attr, layer, name=None, post=None, hot=False):
        orig = getattr(owner, attr)
        name = name or attr

        def wrapper(*args, **kwargs):
            return self._call(layer, name, orig, post, hot, args, kwargs)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- post hooks: counts measured where the work happens ----------------------


def count_projection(tr, out, args, kwargs, dur):
    values = np.asarray(args[0])
    if values.ndim != 2:
        return
    rows, n = values.shape
    tr.counts["projection.rows"] += rows
    tr.counts[f"projection.rows.n{n}"] += rows
    tr.counts[f"projection.s.n{n}"] += dur
    tr.counts["projection.active_rows"] += int(np.any(out != values, axis=1).sum())


def count_walk_steps(tr, out, args, kwargs, dur):
    if args[3] == 0:  # channel 0 is drawn once per live walk and step
        tr.counts["mc.walk_steps"] += len(args[1])


def count_sweeps(tr, out, args, kwargs, dur):
    grid = args[1]
    tr.counts["solve.sweeps"] += out.meta["sweeps"]
    tr.counts["solve.rows_swept"] += out.meta["sweeps"] * len(grid.indexing()[0])


def count_bellman(tr, out, args, kwargs, dur):
    tr.counts["bellman.iterations"] += out.meta["iterations"]


def count_walks(tr, out, args, kwargs, dur):
    tr.counts["mc.walks"] += args[4]


def install(tr):
    """Wrap every measured layer of the ``membranes`` package."""
    from membranes import analysis, cli, exact1d, gamesim, solver2d

    tr.wrap(cli, "run", "cli", "cli.run")
    tr.wrap(solver2d, "solve", "solver2d", "solve", post=count_sweeps)
    tr.wrap(solver2d, "save_solution_csv", "solver2d", "save_csv")
    tr.wrap(solver2d, "_harmonic_extension", "solver2d", "harmonic_ext")
    tr.wrap(solver2d, "isotonic_project_batch", "projection", "projection",
            post=count_projection, hot=True)
    tr.wrap(gamesim, "isotonic_project_batch", "projection", "projection",
            post=count_projection, hot=True)
    for attr in ("weiss", "calibrate_weiss_slack", "monotonicity_check"):
        tr.wrap(analysis, attr, "analysis")
    tr.wrap(analysis, "fit_cone", "analysis", "fit_cone")
    tr.wrap(analysis, "regular_point_probe", "analysis", "regular_point_probe")
    tr.wrap(exact1d, "b_to_gamma", "exact1d", "b_to_gamma", hot=True)
    tr.wrap(exact1d.ApproximateProfile2D, "eval", "exact1d", "profile_eval", hot=True)
    tr.wrap(gamesim, "bellman_solve", "gamesim", "bellman", post=count_bellman)
    tr.wrap(gamesim, "monte_carlo_eval", "gamesim", "mc", post=count_walks)
    tr.wrap(gamesim, "_u01", "gamesim", "u01", post=count_walk_steps, hot=True)
