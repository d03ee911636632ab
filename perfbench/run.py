#!/usr/bin/env python3
"""eisopt benchmark: one closed-loop client timing the package as a black box.

    python3 perfbench/run.py --workload {design,fit,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` before any timing starts.
With ``--trace 0`` the run measures operations back to back for
``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it
wraps each layer's entry points (see ``tracer.py``), runs a fixed set of
operations traced, repeats the same operations untraced to measure the
tracing overhead, writes the spans to ``perfbench/out/`` and prints the
per-layer metrics.  The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run context and details.
"""

import os

# One process, one thread: pin BLAS before NumPy is first imported.
BLAS_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up is timed in this many fresh interpreters plus this process.
SETUP_CHILDREN = 3


def import_eisopt():
    """Import the package from this checkout's ``src``, and nothing else."""
    if not (SRC / "eisopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no eisopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eisopt

    if Path(eisopt.__file__).resolve().parent != (SRC / "eisopt").resolve():
        raise SystemExit(f"error: imported eisopt from {eisopt.__file__}, not {SRC}")
    import eisopt.design
    import eisopt.estimation
    import eisopt.frequency
    import eisopt.information
    import eisopt.measurement

    return eisopt


def _seeds(seed, count):
    """Two independent 32-bit seeds per operation, spawned from ``seed``."""
    import numpy as np

    out = []
    for child in np.random.SeedSequence(seed).spawn(count):
        a, b = child.spawn(2)
        out.append((int(a.generate_state(1)[0]), int(b.generate_state(1)[0])))
    return out


class Design:
    """One ``run_design`` call, 60 iterations, on a grid thinned below 0.1 Hz.

    Operations cycle through ppd 7, 8, 9 and through STATE_A, STATE_B
    (six combinations).  Each gets its own synthesis and re-measurement
    seed.
    """

    # Inputs built in set-up, operation types per cycle, and operations in
    # the traced run (a fixed number, so its counts repeat exactly).
    POOL = 96
    CYCLE = 6
    TRACED_OPS = 6
    PPDS = (7, 8, 9)

    def __init__(self, eisopt, seed):
        self.m = eisopt
        err = eisopt.ErrorStructure()
        base = eisopt.frequency.log_spaced_inclusive(1e4, 0.01, 10)
        reduced = {p: eisopt.frequency.reduce_ppd(base, 0.1, p) for p in self.PPDS}
        states = (eisopt.STATE_A, eisopt.STATE_B)
        self.err, self.base = err, base
        self.cfg = eisopt.design.DesignConfig(max_iterations=60)
        self.inputs = []
        for k, (synth_seed, run_seed) in enumerate(_seeds(seed, self.POOL)):
            theta, grid = states[k % 2], reduced[self.PPDS[k % 3]]
            spectrum = eisopt.measurement.synthesize(theta, grid, err, seed=synth_seed)
            self.inputs.append((spectrum, theta, run_seed))
        # op index -> (final normalized volume, whether any step fell below 1)
        self.volumes = {}
        self.terminated = {}

    def warmup(self):
        spectrum, theta, run_seed = self.inputs[0]
        self.m.design.run_design(
            spectrum, theta, self.m.design.DesignConfig(max_iterations=2),
            err=self.err, seed=run_seed, reference_grid=self.base,
        )

    def call(self, i):
        spectrum, theta, run_seed = self.inputs[i % self.POOL]
        return self.m.design.run_design(
            spectrum, theta, self.cfg, err=self.err, seed=run_seed,
            reference_grid=self.base,
        )

    def check(self, i, trace):
        n = len(self.inputs[i % self.POOL][0].grid)
        ok = all(len(s.grid) == n for s in trace.steps) and all(
            s.lambda_min_after >= s.lambda_min_before for s in trace.steps[1:]
        )
        key = trace.terminated.split(":")[0]
        self.terminated[key] = self.terminated.get(key, 0) + 1
        self.volumes[i] = (trace.final.normalized_volume,
                           min(s.normalized_volume for s in trace.steps) < 1.0)
        return ok

    def quality(self, ops):
        """Median final volume and crossed share over operations ``< ops``."""
        done = [v for i, v in self.volumes.items() if i < ops]
        if not done:
            raise SystemExit("error: no design operation completed")
        return (statistics.median(v for v, _ in done),
                sum(c for _, c in done) / len(done))


class Fit:
    """``initialize`` plus ``fit_wcnls`` on one 61-point spectrum.

    Operations alternate STATE_A and STATE_B; two in every eight spectra
    are noiseless and must recover the true parameters.
    """

    POOL = 512
    CYCLE = 8
    TRACED_OPS = 256
    RECOVERY_RTOL = 1e-3

    def __init__(self, eisopt, seed):
        self.m = eisopt
        err = eisopt.ErrorStructure()
        grid = eisopt.frequency.log_spaced(1e4, 0.01, 10)
        states = (eisopt.STATE_A, eisopt.STATE_B)
        self.inputs = []
        for k, (synth_seed, _) in enumerate(_seeds(seed, self.POOL)):
            theta, noiseless = states[k % 2], k % 8 < 2
            spectrum = eisopt.measurement.synthesize(
                theta, grid, err, seed=synth_seed, noiseless=noiseless
            )
            self.inputs.append((spectrum, theta, noiseless))

    def warmup(self):
        self.call(0)

    def call(self, i):
        spectrum = self.inputs[i % self.POOL][0]
        est = self.m.estimation
        return est.fit_wcnls(spectrum, est.initialize(spectrum))

    def check(self, i, result):
        _, theta, noiseless = self.inputs[i % self.POOL]
        if not math.isfinite(result.objective):
            return False
        if noiseless:
            truth = theta.to_array()
            rel = abs(result.theta.to_array() - truth) / abs(truth)
            return bool(rel.max() < self.RECOVERY_RTOL)
        return True

    def quality(self, ops):
        return NO_DESIGN_QUALITY


class Sweep:
    """One ``crlb-sweep`` table: the baseline CRLB, then for every
    (threshold, ppd) cell ``reduce_ppd`` and an ``uncertainty_report``.

    Parameter sets cycle through eight slots: the two fixtures, three
    random sets and three random sets with one exponent pinned to the edge
    of its admissible interval.
    """

    POOL = 256
    CYCLE = 8
    TRACED_OPS = 128
    THRESHOLDS = (0.1, 0.3, 1.0, 3.0)
    PPDS = tuple(range(2, 10))
    SLOTS = ("state_a", "state_b", "random", "random", "random",
             "phi_hf_edge", "phi_1_edge", "phi_lf_edge")
    EDGES = {"phi_hf_edge": {"phi_hf": -1.0}, "phi_1_edge": {"phi_1": 1.0},
             "phi_lf_edge": {"phi_lf": 0.0}}
    MONOTONE_RTOL = 1e-10

    def __init__(self, eisopt, seed):
        import numpy as np

        self.m = eisopt
        self.err = eisopt.ErrorStructure()
        self.base = eisopt.frequency.log_spaced_inclusive(1e4, 0.01, 10)
        # CRLBs can only grow under thinning when the threshold is itself
        # a baseline point; elsewhere reduce_ppd inserts the threshold as a
        # new frequency, which may sharpen a bound.
        self.on_grid = {
            t: any(abs(f - t) <= 1e-9 * t for f in self.base.frequencies)
            for t in self.THRESHOLDS
        }
        self.thetas = []
        for k, (theta_seed, _) in enumerate(_seeds(seed, self.POOL)):
            slot = self.SLOTS[k % len(self.SLOTS)]
            if slot == "state_a":
                theta = eisopt.STATE_A
            elif slot == "state_b":
                theta = eisopt.STATE_B
            else:
                theta = random_theta(eisopt, np.random.default_rng(theta_seed),
                                     **self.EDGES.get(slot, {}))
            self.thetas.append(theta)

    def warmup(self):
        self.call(0)

    def call(self, i):
        theta = self.thetas[i % self.POOL]
        inf, fq = self.m.information, self.m.frequency
        base_crlb = inf.crlb(inf.fisher(theta, self.base, self.err))
        cells = []
        for t in self.THRESHOLDS:
            for p in self.PPDS:
                grid = fq.reduce_ppd(self.base, t, p)
                cells.append((t, inf.uncertainty_report(inf.fisher(theta, grid, self.err))))
        return base_crlb, cells

    def check(self, i, result):
        base_crlb, cells = result
        if not (base_crlb > 0).all():
            return False
        for t, report in cells:
            if not (report.crlb > 0).all():
                return False
            ratio = report.crlb / base_crlb
            if self.on_grid[t] and ratio.min() < 1.0 - self.MONOTONE_RTOL:
                return False
        return True

    def quality(self, ops):
        return NO_DESIGN_QUALITY


def random_theta(eisopt, rng, **pinned):
    """Log-uniform scales around the characterized cell and exponents inside
    their admissible intervals; ``pinned`` overrides single parameters."""
    values = {
        "r_s": 10.0 ** rng.uniform(-3.5, -2.0),
        "q_hf": 10.0 ** rng.uniform(5.5, 7.5),
        "phi_hf": rng.uniform(-0.99, -0.6),
        "r_1": 10.0 ** rng.uniform(-3.0, -1.8),
        "q_1": 10.0 ** rng.uniform(0.0, 1.2),
        "phi_1": rng.uniform(0.45, 0.95),
        "r_2": 10.0 ** rng.uniform(-2.8, -1.4),
        "q_2": 10.0 ** rng.uniform(0.2, 1.3),
        "phi_2": rng.uniform(0.5, 0.98),
        "q_lf": 10.0 ** rng.uniform(2.0, 3.5),
        "phi_lf": rng.uniform(0.3, 0.9),
    }
    values.update(pinned)
    return eisopt.ParameterVector(**values)


# The design-quality metrics on workloads that run no design loop: an
# unadjusted grid's volume relative to itself, and "crossed" by convention.
NO_DESIGN_QUALITY = (1.0, 1.0)

WORKLOADS = {"design": Design, "fit": Fit, "sweep": Sweep}


def run_ops(workload, eisopt, indices, seconds=None, tracer=None):
    """Run operations back to back; returns per-op times and outcomes.

    Only the library call is timed; output checks run outside the timer.
    Outcomes are "ok", "error" (a typed EisoptError) or "failed" (a wrong
    output or any other exception).
    """
    times, outcomes = [], []
    start = perf_counter()
    for i in indices:
        if seconds is not None and perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            result = workload.call(i)
        except eisopt.EisoptError:
            outcome = "error"
        except Exception:
            outcome = "failed"
            print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            outcome = "ok"
        times.append(perf_counter() - t0)
        if outcome == "ok" and not workload.check(i, result):
            outcome = "failed"
            print(f"op {i} failed its output check", file=sys.stderr)
        outcomes.append(outcome)
    return times, outcomes, perf_counter() - start


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_PIN,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_setup(args):
    """Import the package and build the workload's inputs; returns both
    with the elapsed wall time."""
    t0 = perf_counter()
    eisopt = import_eisopt()
    workload = WORKLOADS[args.workload](eisopt, args.seed)
    return eisopt, workload, perf_counter() - t0


def child_setup_seconds(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("error: set-up failed in a child interpreter")
    return float(proc.stdout.strip().splitlines()[-1])


def tail(times_ms):
    """The 95th percentile, or in runs of fewer than 200 operations the
    highest order statistic with ten samples beyond it (at least the
    median).  Returns the value, its percentile and the count beyond it.

    Beyond p95 the order statistics on a shared machine measure other
    tenants' interruptions more than the program.
    """
    ordered = sorted(times_ms)
    n = len(ordered)
    beyond = max(min(10, (n - 1) // 2), n // 20)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def cycle_median(times_ms, cycle):
    """Median over cycles of operation types of the cycle's mean time.

    Operation types differ in cost (STATE_B fits take several times as long
    as STATE_A fits), so the plain median of single operations falls in the
    gap between types and jumps with small shifts; a cycle's mean does not.
    """
    return statistics.median(
        statistics.fmean(times_ms[k:k + cycle]) for k in range(0, len(times_ms), cycle)
    )


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    setups = [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]
    eisopt, workload, own_setup = timed_setup(args)
    setups.append(own_setup)
    workload.warmup()
    times, outcomes, elapsed = run_ops(workload, eisopt, itertools.count(), seconds=args.seconds)
    attempted = len(outcomes)
    failed = outcomes.count("failed")
    # Per-operation statistics use whole cycles of operation types, so each
    # run weighs the types alike; the failure count uses every operation.
    n = attempted - attempted % workload.CYCLE if attempted >= workload.CYCLE else attempted
    ms = [t * 1e3 for t in times[:n]]
    tail_ms, tail_pct, beyond = tail(ms)
    errors = outcomes[:n].count("error") + outcomes[:n].count("failed")
    volume, crossed = workload.quality(n)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(attempted / elapsed, "1/s"),
        "op_p50_ms": metric(cycle_median(ms, workload.CYCLE), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "success_rate": metric((n - errors) / n, "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "design_volume_final_median": metric(volume, "ratio"),
        "design_crossed_frac": metric(crossed, "frac"),
    }
    detail = {
        "error_rate": errors / n,
        "typed_errors": outcomes.count("error"),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "ops_in_whole_cycles": n,
        "setup_samples_s": setups,
    }
    if isinstance(workload, Design):
        detail["terminated"] = workload.terminated
    return attempted, failed, metrics, detail


def per_layer(args):
    from tracer import Tracer, layer_metrics, unit_of

    eisopt = import_eisopt()
    tracer = Tracer()
    tracer.install()
    try:
        workload = WORKLOADS[args.workload](eisopt, args.seed)
    finally:
        tracer.uninstall()
    workload.warmup()
    # Each operation runs once traced and once untraced, in alternating
    # order, so slow drifts in machine speed fall on both sides alike.
    outcomes, traced_s, untraced_s = [], 0.0, 0.0
    for i in range(workload.TRACED_OPS):
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if not traced:
                untraced_s += sum(run_ops(workload, eisopt, [i])[0])
                continue
            tracer.install()
            try:
                times, out, _ = run_ops(workload, eisopt, [i], tracer=tracer)
            finally:
                tracer.uninstall()
            traced_s += sum(times)
            outcomes += out

    layers = layer_metrics(tracer.spans)
    metrics = {name: metric(value, unit_of(name)) for name, value in layers.items()}
    n = len(outcomes)
    metrics["trace.traced_ops_per_s"] = metric(n / traced_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = metric(n / untraced_s, "1/s")
    metrics["trace.overhead_frac"] = metric(traced_s / untraced_s - 1.0, "frac")

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_csv_gz(spans_file)
    detail = {
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "missing_bindings": tracer.missing,
        "error_rate": (n - outcomes.count("ok")) / n,
    }
    return n, outcomes.count("failed"), metrics, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        print(repr(timed_setup(args)[2]))
        return 0
    if args.trace:
        attempted, failed, metrics, detail = per_layer(args)
    else:
        attempted, failed, metrics, detail = end_to_end(args)
    print(json.dumps({"context": run_context(args), "detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
