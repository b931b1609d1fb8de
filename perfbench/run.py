"""The membranes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload, one process each

Run from the root of a checkout: the package is imported from ./src, and
nothing is installed.  Each run is one closed loop with one client: the
workload's fixed batch of operations runs again and again, one operation
after another, until the next batch would end more than half a batch past
--seconds.  BLAS threads are pinned to 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:

    setup_s       median over five fresh interpreters of the time from the
                  first import to the end of input generation
    wall_s        median wall time of one batch
    err_over_tol  the batch's largest error against the exact reference,
                  over the tolerance the program was asked to meet (on
                  fit-catalogue the median fit misfit over the noise bound)
    peak_rss_mb   peak resident memory of the process after its first batch

Both times are scaled to the reference machine's speed with the calibration
kernel below; the report also carries the raw times.

--trace 1 alternates untraced and traced batches and reports the per-layer
metrics, with the spans written to .perfbench/trace-<workload>-<seed>.jsonl.
The line before the result carries a report: run metadata, raw times,
pipeline timings (solve_s, bellman_s, mc_walks_per_s, fits_per_s), sweep
counts and the output digest.  The last line is the result object.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans

ROOT = Path.cwd()
WORKLOAD_NAMES = ("weiss-rect", "blowup-disk", "game-lattice", "fit-catalogue")
SETUP_REPEATS = 5
# Seconds the calibration kernel takes on the reference machine (a 2-core
# Intel Xeon KVM guest, Python 3.11, numpy 2.4).  Times are reported at that speed.
REFERENCE_KERNEL_S = 0.5
perf = time.perf_counter


def kernel_s():
    """Time of a fixed piece of numpy work: sorting and gathering arrays of
    a few MB, as the solvers do over whole grids, and projected sweeps over a
    few thousand rows, where interpreter overhead dominates.

    On a shared host the speed of this machine changes by tens of percent
    from one half-minute to the next, more than the run-to-run bounds allow.
    The kernel runs after each batch, outside the timed region; a batch's
    wall time is scaled by the reference kernel time over the mean of the
    kernel times before and after it (after it alone for the first batch).
    Each set-up time is scaled by the kernel time measured right after it
    in the same interpreter.  The kernel must last about half a second to
    follow the batches: slices of a few tens of milliseconds vary more than
    the batches do.  Over 30
    consecutive blowup-disk batches on the reference machine the raw batch
    time moved between 4.1 and 6.7 s; cut into runs of four batches, the
    quartile spread of the run medians was 0.24 raw and 0.05 scaled."""
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal(600_000)
    u0 = rng.standard_normal((2048, 3))
    nbr = rng.integers(0, 2048, (2048, 4))
    t0 = perf()
    for _ in range(12):
        order = np.argsort(np.sort(big))
        big[order[:100_000]].cumsum()
        u = u0
        for _ in range(60):
            v = u[nbr].sum(axis=1) * 0.25 - 0.01
            for k in range(2):
                bad = v[:, k] < v[:, k + 1]
                pooled = 0.5 * (v[bad, k] + v[bad, k + 1])
                v[bad, k] = pooled
                v[bad, k + 1] = pooled
            u = np.clip(v, -3.0, 3.0)
    return perf() - t0


def _import_package():
    """Import membranes from ./src and nowhere else; None if it is not there."""
    src = ROOT / "src"
    if not (src / "membranes" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import membranes

    if Path(membranes.__file__).resolve().parent != (src / "membranes").resolve():
        return None
    return membranes


def metadata():
    info = {
        "nproc": os.cpu_count(),
        "cpu": None,
        "python": platform.python_version(),
        "commit": None,
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src" / "membranes").glob("*.py"))
        ),
    }
    import numpy
    import scipy

    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            name = "L" + (idx / "level").read_text().strip() + (idx / "type").read_text().strip()
            caches[name] = (idx / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        info["commit"] = ref
    return info


def run_batches(wl, seconds, tracer=None):
    """Run batches, alternating untraced and traced ones when a tracer is
    given, until the next one would end more than half a batch past
    ``seconds``.  The calibration kernel runs after each batch; it, the
    output checks and the references run outside the timed region.  The
    peak resident memory is read right after the first batch, before the
    references and the kernel allocate theirs.  ``ref_out`` is the first
    batch without failures, None if every batch failed."""
    outcomes, kernels = [], []
    ref_out = refs = ref_s = peak_mb = None
    while True:
        traced = tracer is not None and len(outcomes) % 2 == 1
        if traced:
            spans.install(tracer)
        t0 = perf()
        out = tracer.root(len(outcomes), wl.batch) if traced else wl.batch()
        out.wall = perf() - t0
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            tracer.uninstall()
        out.traced = traced
        try:
            wl.check(out)
        except Exception as exc:  # an output the check cannot read is a failed check
            out.failures.append(f"output check: {type(exc).__name__}: {exc}")
        if outcomes and out.digest != outcomes[0].digest:
            out.failures.append("output differs from the first batch of this run")
        outcomes.append(out)
        if ref_out is None and not out.failures:
            t0 = perf()
            ref_out, refs = out, wl.references(out)
            ref_s = perf() - t0
        kernels.append(kernel_s())
        out.scaled = out.wall * REFERENCE_KERNEL_S / statistics.mean(kernels[-2:])
        walls = [o.wall for o in outcomes]
        if sum(walls) + 0.5 * max(walls) > seconds and (tracer is None or len(outcomes) >= 2):
            break
    return outcomes, ref_out, refs, ref_s, kernels, peak_mb


def per_layer(tracer, outcomes):
    """Per-layer metrics, per traced batch."""
    c = tracer.counts
    traced = [o.scaled for o in outcomes if o.traced]
    plain = [o.scaled for o in outcomes if not o.traced]
    k = len(traced)
    layer = tracer.layer_self

    def per(x):
        return x / k

    def ratio(num, den):
        return num / den if den else 0.0

    wall = tracer.wall_s
    weiss_s = sum(c[f"{n}.self_s"] for n in ("weiss", "calibrate_weiss_slack", "monotonicity_check"))
    m = {
        "projection.calls": ("count", per(c["projection.calls"])),
        "projection.rows": ("count", per(c["projection.rows"])),
        "projection.busy_s": ("s", per(c["projection.s"])),
        "projection.ns_per_row.n2": ("ns", 1e9 * ratio(c["projection.s.n2"], c["projection.rows.n2"])),
        "projection.ns_per_row.n3": ("ns", 1e9 * ratio(c["projection.s.n3"], c["projection.rows.n3"])),
        "projection.active_row_frac": ("ratio", ratio(c["projection.active_rows"], c["projection.rows"])),
        "solver2d.sweeps": ("count", per(c["solve.sweeps"])),
        "solver2d.solve_s": ("s", per(c["solve.s"])),
        "solver2d.sweep_ns_per_row": ("ns", 1e9 * ratio(c["solve.self_s"], c["solve.rows_swept"])),
        "solver2d.harmonic_ext_s": ("s", per(c["harmonic_ext.s"])),
        "solver2d.save_csv_s": ("s", per(c["save_csv.s"])),
        "solver2d.self_s": ("s", per(layer["solver2d"])),
        "analysis.weiss_s": ("s", per(weiss_s)),
        "analysis.fit_cone.calls": ("count", per(c["fit_cone.calls"])),
        "analysis.fit_cone_s": ("s", per(c["fit_cone.s"])),
        "analysis.fits_per_s": ("1/s", ratio(c["fit_cone.calls"], c["fit_cone.s"])),
        "analysis.self_s": ("s", per(layer["analysis"])),
        "exact1d.b_to_gamma.calls": ("count", per(c["b_to_gamma.calls"])),
        "exact1d.b_to_gamma_s": ("s", per(c["b_to_gamma.s"])),
        "exact1d.profile_eval_s": ("s", per(c["profile_eval.s"])),
        "exact1d.self_s": ("s", per(layer["exact1d"])),
        "gamesim.bellman.iterations": ("count", per(c["bellman.iterations"])),
        "gamesim.bellman_s": ("s", per(c["bellman.s"])),
        "gamesim.bellman.self_s": ("s", per(c["bellman.self_s"])),
        "gamesim.mc.walk_steps": ("count", per(c["mc.walk_steps"])),
        "gamesim.mc.ns_per_walk_step": ("ns", 1e9 * ratio(c["mc.s"], c["mc.walk_steps"])),
        "gamesim.mc.walks_per_s": ("1/s", ratio(c["mc.walks"], c["mc.s"])),
        "gamesim.self_s": ("s", per(layer["gamesim"])),
        "cli.run.self_s": ("s", per(layer["cli"])),
        "trace.self_s": ("s", per(layer["trace"])),
        "trace.remainder_s": ("s", per(layer["bench"])),
        "trace.wall_s": ("s", per(wall)),
        "trace.overhead_frac": ("ratio", statistics.median(traced) / statistics.median(plain)),
        "fail_frac": ("ratio", _fail_frac(outcomes)),
    }
    layers = sum(layer.values())
    if abs(layers - wall) > 1e-9 * wall:
        raise RuntimeError(f"layer self times sum to {layers} s, traced wall is {wall} s")
    return m


def _failed(outcomes):
    """Failed operations; a batch's failure messages beyond its number of
    operations (for instance an output that differs from the first batch's)
    do not count twice."""
    return sum(min(len(o.failures), o.ops) for o in outcomes)


def _fail_frac(outcomes):
    return _failed(outcomes) / sum(o.ops for o in outcomes)


def report_stats(outcomes):
    """Pipeline timings per batch, from the program's own manifests where it
    writes them and from the benchmark's operation boundaries otherwise."""
    keys = sorted({k for o in outcomes for k in o.stats})
    stats = {}
    for key in keys:
        vals = [o.stats[key] for o in outcomes if key in o.stats]
        stats[key] = vals[0] if isinstance(vals[0], list) else statistics.median(vals)
    if "mc_s" in stats:
        stats["mc_walks_per_s"] = stats["mc_walks"] / stats["mc_s"]
    if "fit_s" in stats:
        stats["fits_per_s"] = stats["fits"] / stats["fit_s"]
    return stats


SETUP_CHILD = """
import time
t0 = time.perf_counter()
import sys
sys.dont_write_bytecode = True
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed!r}, {workdir!r})
setup_s = time.perf_counter() - t0
import run
print(setup_s, run.kernel_s())
"""


def measure_setup(name, seed, workdir):
    """Seconds from the first import to the end of input generation, in a
    fresh interpreter so that the package import is paid each time, and the
    calibration kernel's time in the same interpreter right after.  A failed
    child stops the run with the child's own error output."""
    code = SETUP_CHILD.format(src=str(ROOT / "src"), here=str(Path(__file__).resolve().parent),
                              name=name, seed=seed, workdir=str(workdir))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    setup_s, kernel = proc.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(kernel)


def run_one(args):
    membranes = _import_package()
    if membranes is None:
        print("membranes sources not found under ./src; run from a checkout root", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    out_root = ROOT / ".perfbench"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        setup = [measure_setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
        wl = cls(args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        outcomes, ref_out, refs, ref_s, kernels, peak_mb = run_batches(wl, args.seconds, tracer)
        plain = [o.scaled for o in outcomes if not o.traced]
        # With every batch failed there is no trusted output to measure the
        # error of; the result then says so through correct/failed.
        err = None if ref_out is None else wl.err_over_tol(ref_out, refs)
        attempted = sum(o.ops for o in outcomes)
        failed = _failed(outcomes)
        e2e = {
            "setup_s": ("s", statistics.median(t * REFERENCE_KERNEL_S / k for t, k in setup)),
            "wall_s": ("s", statistics.median(plain)),
            "err_over_tol": ("ratio", err),
            "peak_rss_mb": ("MB", peak_mb),
        }
        e2e = {k: v for k, v in e2e.items() if v[1] is not None}
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "meta": metadata(),
            "setup_runs_s": [t for t, _ in setup],
            "setup_kernel_s": [k for _, k in setup],
            "reference_s": ref_s,
            "batches_untraced": len(plain),
            "batches_traced": len(outcomes) - len(plain),
            "batch_walls_s": [o.wall for o in outcomes],
            "kernel_s": kernels,
            "digest": outcomes[0].digest,
            "fail_frac": _fail_frac(outcomes),
            "failures": [f for o in outcomes for f in o.failures][:20],
            "pipeline": report_stats(outcomes),
            "end_to_end": {k: {"value": v, "unit": u} for k, (u, v) in e2e.items()},
        }
        if tracer is not None:
            layer = per_layer(tracer, outcomes)
            report["per_layer"] = {k: {"value": v, "unit": u} for k, (u, v) in layer.items()}
            tracer.write(out_root / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = report["per_layer"]
        else:
            metrics = report["end_to_end"]
        print(json.dumps({"report": report}))
        for f in report["failures"]:
            print(f"FAILED: {f}", file=sys.stderr)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Every workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": name, "exit": proc.returncode,
                          "result": json.loads(lines[-1]) if proc.returncode == 0 else None}))
        code = code or proc.returncode
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Any integer is a valid seed; the generators take nonnegative ones below 2^64.
    args.seed %= 2**63
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
