"""sedslam benchmark: seeded workloads, timed closed loop, ground-truth gate.

    python3 perfbench/run.py --workload twoview-96 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from anywhere; sedslam is imported from ``src/`` next to this directory.
One client in one process calls the library back to back (closed loop) with
BLAS pinned to one thread. Inputs come in blocks of ``BLOCK`` operations,
each from its own seed derived from ``--seed``, and a block is built before
its timing starts. The loop runs until ``--seconds`` of operation time and,
untraced, at least ``Size.min_ops`` operations are measured. Operation times
are scaled by a probe kernel to remove slowdowns caused by other tenants of
the machine (see ``Clock``). Every output is checked against ground truth;
an operation that raises or misses its tolerance fails.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every block
twice on the same inputs, untraced and traced in alternating order, and
reports per-layer metrics plus the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# BLAS reads its thread count when numpy loads, so pin it before numpy is
# imported, here and (through the inherited environment) in child processes.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

BLOCK = 16
SETUP_STARTS = 9
# Other tenants of a shared machine slow this process down by up to 1.7x,
# in phases of a second to over a minute, with no steal time to show for
# it. A fixed pure-Python probe kernel is timed after every operation, and
# each operation's time is scaled by the reference probe time over the mean
# of the probes just before and after it. The reference is the lowest
# PROBE_REF_PERCENTILE of probe times seen by any run in this checkout
# (kept in PROBE_REF_FILE), so that a run spent wholly in a slow phase is
# scaled too. Unscaled figures are printed beside the scaled ones.
PROBE_REF_PERCENTILE = 1
PROBE_REF_FILE = os.path.join(OUT_DIR, "probe_reference.json")
# Wall-time cap of the measuring loop, so that a run ends within 180 s.
LOOP_LIMIT_S = 120.0
# Imports sedslam in a fresh interpreter and prints how long that took.
SETUP_PROBE = ("import time; t0 = time.perf_counter(); import sedslam, sedslam.cli; "
               "print(time.perf_counter() - t0)")

# (name, unit) in the order printed; the JSON carries exactly these.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("err_tol_mean", "1"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny problems and few operations, for the smoke test")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _probe_kernel():
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0.0) + 0.5 * i
    return counts


class Clock:
    """Times operations and the probe kernel run after each of them."""

    def __init__(self):
        self.probes: list[float] = []
        self.last = self.probe()
        try:
            with open(PROBE_REF_FILE) as fh:
                self.stored = float(json.load(fh)["probe_s"])
        except (OSError, ValueError, KeyError):
            self.stored = float("inf")

    def probe(self) -> float:
        t0 = time.perf_counter()
        _probe_kernel()
        elapsed = time.perf_counter() - t0
        self.probes.append(elapsed)
        return elapsed

    def time(self, call, *args):
        """Returns (output, seconds, probe before, probe after)."""
        before = self.last
        t0 = time.perf_counter()
        out = call(*args)
        elapsed = time.perf_counter() - t0
        self.last = self.probe()
        return out, elapsed, before, self.last

    def reference(self) -> float:
        return min(self.stored, float(np.percentile(self.probes, PROBE_REF_PERCENTILE)))

    def scale(self, timings) -> np.ndarray:
        """Seconds of (seconds, probe before, probe after) rows, scaled."""
        t = np.array(timings, dtype=float).reshape(-1, 3)
        return t[:, 0] * self.reference() / (0.5 * (t[:, 1] + t[:, 2]))

    def save_reference(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(PROBE_REF_FILE, "w") as fh:
            json.dump({"probe_s": self.reference()}, fh)


def measure_setup(starts: int, clock: Clock) -> list:
    """(seconds, probe before, probe after) of ``starts`` cold starts of a
    fresh interpreter importing sedslam; one unrecorded start goes first so
    that bytecode caches exist."""
    def cold_start():
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.strip())

    cold_start()
    timings = []
    for _ in range(starts):
        before = clock.last
        elapsed = cold_start()
        clock.last = clock.probe()
        timings.append((elapsed, before, clock.last))
    return timings


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinning variable."""
    import ctypes
    import glob

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Tally:
    """Outcomes of operations: every output is gated, passing ones timed."""

    def __init__(self, workload, clock: Clock):
        self.workload = workload
        self.clock = clock
        self.timings: list[tuple[float, float, float]] = []  # (seconds, before, after)
        self.op_ids: list[int] = []
        self.errors: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def timed(self, case, call, op_id=None) -> float:
        """Run ``call(case)``, gate its output, return its seconds."""
        self.attempted += 1
        try:
            out, elapsed, before, after = self.clock.time(call, case)
            errors = self.workload.errors(case, out)
        except Exception as exc:  # the loop must survive any failing operation
            self.fail(f"{type(exc).__name__}: {exc}")
            return 0.0
        tol = self.workload.tolerances
        over = {k: v for k, v in errors.items() if not v <= tol[k]}
        if over:
            self.fail(f"over tolerance {over}")
            return elapsed
        for key, value in errors.items():
            self.errors.setdefault(key, []).append(value)
        self.timings.append((elapsed, before, after))
        self.op_ids.append(op_id)
        return elapsed

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)

    def ms(self, scaled: bool = True) -> np.ndarray:
        """Per-operation milliseconds, scaled to the reference probe speed."""
        if scaled:
            return self.clock.scale(self.timings) * 1e3
        return np.array([t[0] for t in self.timings]) * 1e3


def run_loop(workload, seed, seconds, min_ops, clock, tracer=None):
    """Closed loop over fresh inputs; returns (plain tally, traced tally).

    Stops once ``seconds`` of operation time (both passes when tracing)
    and ``min_ops`` passing untraced operations are measured, or after
    LOOP_LIMIT_S of wall time.
    """
    plain, traced = Tally(workload, clock), Tally(workload, clock)

    def untraced_pass(cases):
        return sum(plain.timed(case, workload.run) for _, case in cases)

    def traced_pass(cases):
        undo = tracer.install()
        try:
            return sum(traced.timed(case, lambda c, i=op_id: tracer.op(i, workload.run, c), op_id)
                       for op_id, case in cases)
        finally:
            undo()

    spent, index = 0.0, 0
    deadline = time.perf_counter() + LOOP_LIMIT_S
    while (spent < seconds or len(plain.timings) < min_ops) and time.perf_counter() < deadline:
        cases = [(index + j, workload.make(op_seed(seed, index + j))) for j in range(BLOCK)]
        if tracer is None:
            spent += untraced_pass(cases)
        else:
            # Same inputs both ways (the solvers may mutate them), alternating
            # which pass goes first so that warm caches favour neither.
            copies = [(i, copy.deepcopy(case)) for i, case in cases]
            if (index // BLOCK) % 2:
                spent += traced_pass(cases) + untraced_pass(copies)
            else:
                spent += untraced_pass(copies) + traced_pass(cases)
        index += BLOCK
        for _, case in cases:
            getattr(workload, "discard", lambda c: None)(case)
    return plain, traced


def timing_metrics(ms) -> dict:
    return {"ops_per_s": len(ms) / (float(np.sum(ms)) / 1e3),
            "op_ms_p50": float(np.percentile(ms, 50)),
            "op_ms_p90": float(np.percentile(ms, 90))}


def end_to_end_metrics(workload, tally, setup_s):
    """The END_TO_END metrics over the operations that passed the gate
    (timings and accuracy read 0 when none did)."""
    metrics = dict.fromkeys((name for name, _ in END_TO_END), 0.0)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tally.timings:
        tol = workload.tolerances
        per_op = np.max([np.asarray(v) / tol[k] for k, v in tally.errors.items()], axis=0)
        metrics["err_tol_mean"] = float(np.mean(per_op))
        metrics.update(timing_metrics(tally.ms()))
    return metrics


def print_line(name, value, unit, note=""):
    print(f"{name:<30} {value:>14.6g} {unit:<6} {note}".rstrip())


def run_one(args) -> int:
    import tracing
    import workloads

    size = workloads.SMOKE if args.size == "smoke" else workloads.FULL
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = workloads.build(args.workload, size, workdir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    clock = Clock()
    setup = measure_setup(1 if args.size == "smoke" else SETUP_STARTS, clock)
    tracer = tracing.Tracer() if args.trace else None
    try:
        # The traced run reports means only, so it needs no p90 sample count.
        min_ops = 0 if args.trace else size.min_ops
        plain, traced = run_loop(workload, args.seed, args.seconds, min_ops, clock, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tallies = (plain, traced)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for message in t.messages:
            print(f"# failed: {message}", file=sys.stderr)

    slow = float(np.mean(np.array(clock.probes) > 1.25 * clock.reference()))
    print(f"# {workload.name} seed {args.seed}: {attempted} operations, {failed} failed, "
          f"trace {args.trace}; probe {clock.reference() * 1e3:.4g} ms, slower by over 25% "
          f"in {slow:.0%} of probes")
    print_line("failed_frac", failed / attempted, "1", f"({failed}/{attempted})")
    if tracer is None:
        metrics = end_to_end_metrics(workload, plain, float(np.median(clock.scale(setup))))
        for name, unit in END_TO_END:
            note = f"(n={len(plain.timings)})" if name.startswith("op_ms") else ""
            print_line(name, metrics[name], unit, note)
        if plain.timings:
            for name, value in timing_metrics(plain.ms(scaled=False)).items():
                print_line(name + "_unscaled", value, dict(END_TO_END)[name])
        print_line("setup_s_unscaled", statistics.median(t[0] for t in setup), "s")
        for key, (name, unit) in workload.reported.items():
            values = plain.errors.get(key, [])
            print_line(name, float(np.median(values)) if values else float("nan"), unit,
                       f"(n={len(values)})")
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        result = tracing_report(tracer, plain, traced, workload, args.seed, env)
    clock.save_reference()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def tracing_report(tracer, plain, traced, workload, seed, env):
    import tracing

    n_ops = len(traced.timings)
    overhead = (float(np.sum(traced.ms()) / np.sum(plain.ms())) - 1.0
                if plain.timings and traced.timings else 0.0)
    scale = dict(zip(traced.op_ids, traced.ms() / traced.ms(scaled=False)))
    layer = tracing.layer_metrics(tracer, scale, overhead)
    for name, (value, unit) in layer.items():
        print_line(name, value, unit)
    shares = tracing.layer_shares(tracer.spans)
    print("# layer share of operation time: "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print(f"# tracing overhead {overhead:+.3f}: traced over untraced time on the same "
          f"{n_ops} operations, minus 1")
    if tracer.absent:
        print("# absent: " + ", ".join(sorted(tracer.absent)))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "env": env, "sites": tracer.sites,
                   "absent": sorted(tracer.absent), "spans": tracer.spans}, fh)
    print(f"# spans written to {os.path.relpath(path, ROOT)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}


def run_all(args) -> int:
    """Run every workload in its own process and print a summary table."""
    import workloads

    rows, status = [], 0
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        cells = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"# {name}: failed {result['failed']}/{result['attempted']}; {cells}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sedslam", "__init__.py")):
        print(f"error: no sedslam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import sedslam

    if not os.path.abspath(sedslam.__file__).startswith(SRC + os.sep):
        print(f"error: imported sedslam from {sedslam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
