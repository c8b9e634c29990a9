"""evslicer benchmark: closed-loop workloads timed against a host-speed reference.

Run from the root of the repository:

    python3 perfbench/run.py --workload arena-conv --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One client per process sends its next step only after the previous one
returned. After every step the fixed reference kernel in `hostref.py` runs,
and every timing is reported host-normalised: multiplied by
NOMINAL_MS / (the run's median reference time), i.e. in milliseconds on a
host where the reference kernel takes NOMINAL_MS. The raw timings and the
reference time are printed next to them and kept in the run record, so a
change that slows the reference (say, by leaving threads busy) shows up
there instead of flattering the normalised figures.

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate pass that interleaves untraced steps with traced ones (see
`tracing.py`). A run record with the environment, input digests, sample
counts and the self-time breakdown is written under perfbench/out/.
"""
import os

# BLAS and OpenMP pools are pinned to one thread before NumPy is imported:
# a second OpenBLAS thread buys no wall time at these sizes and takes the
# machine's other core.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostref  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 9          # set-ups per run; setup_s is their median
LOCAL_REFS = 1          # a step is normalised by the 2 * 1 + 1 nearest references
MIN_STEPS = 100         # p90 then has at least ten samples beyond it
MIN_TRACED_PAIRS = 10   # untraced/traced step pairs in a --trace 1 run
MAX_MEASURE_S = 120.0   # cap on the timed loop, so a run ends within 180 s
COUNT_STEPS = 2
OP_REPS = 25

END_TO_END = [
    ("setup_s", "s"), ("steps_per_s", "1/s"), ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
]

# Layers whose self time per traced step is reported; the other two traced
# names run outside the steps and are reported per call.
SPAN_LAYERS = [name for name, _, _ in tracing.TARGETS
               if name not in ("snn.load", "energy.profile_network")]
OP_NAMES = tracing.OP_NAMES
COUNT_METRICS = [
    ("snn.forward.calls", "count"), ("autodiff.tensors_per_step", "count"),
    ("feedback.candidates_per_sample", "count"), ("feedback.degenerate_ratio", "ratio"),
    ("events.event_group.calls", "count"), ("events.render.calls", "count"),
]


def _timing_metrics():
    """Host-normalised per-layer timings; each has a raw.* twin."""
    return ([(f"{name}.self_ms", "ms") for name in SPAN_LAYERS]
            + [("trace.other.self_ms", "ms"), ("trace.step_ms", "ms"),
               ("snn.load.ms", "ms"), ("energy.profile_network.ms_per_cell", "ms")]
            + [(f"autodiff.op.{op}.{kind}", "ms") for op in OP_NAMES
               for kind in ("fwd_ms", "bwd_ms")]
            + [("events.parse_mev_per_s", "Mev/s")])


def per_layer_spec():
    timings = _timing_metrics()
    raw = [(f"raw.{name}", unit) for name, unit in timings + END_TO_END[:4]]
    return timings + COUNT_METRICS + raw + [("host.ref_ms", "ms"), ("trace.overhead_pct", "%")]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _import_program():
    """Import evslicer from this checkout's src/ and nowhere else."""
    if not (SRC / "evslicer" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'evslicer'} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import evslicer
    if Path(evslicer.__file__).resolve().parent != (SRC / "evslicer").resolve():
        sys.exit(f"error: imported evslicer from {evslicer.__file__}, not from {SRC}")


def _git_revision():
    """HEAD of the checkout read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    h = hashlib.sha256()
    for path in sorted((SRC / "evslicer").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    cpu = ""
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": _git_revision(),
        "source_sha256": h.hexdigest(),
        "reference_nominal_ms": hostref.NOMINAL_MS,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def local_factors(ref_ms, k):
    """Per-sample multiplier NOMINAL_MS / median of the reference times of
    the sample and its k neighbours on each side. The window follows the
    host's speed, which can move by half within one run when neighbours
    start work, while a single slow reference call cannot move it."""
    return [hostref.NOMINAL_MS / statistics.median(ref_ms[max(0, i - k):i + k + 1])
            for i in range(len(ref_ms))]


class Run:
    """One workload in one process: set-ups, timed steps and reference times.

    Every set-up is bracketed by two reference calls and every timed step is
    followed by one; `setup_ref` and `step_ref` hold the reference time that
    belongs to each sample.
    """

    def __init__(self, workload, smoke):
        self.w = workload
        self.smoke = smoke
        self.kernel = hostref.ReferenceKernel()
        self.ref_ms = []
        self.setup_s, self.setup_ref = [], []
        self.step_ms, self.step_ref, self.ok = [], [], []
        self.failures = []

    def run_kernel(self):
        ms = self.kernel.run()
        self.ref_ms.append(ms)
        return ms

    def setups(self):
        """Set up SETUP_REPS times; each clock runs from the first evslicer
        call to the end of the warm-up step. The first warm-up output is the
        reference every later step must reproduce."""
        from workloads import CheckFailed
        for i in range(1 if self.smoke else SETUP_REPS):
            gc.collect()
            before = self.run_kernel()
            t0 = time.perf_counter()
            self.w.setup()
            self.w.restore()
            out = self.w.step()
            self.setup_s.append(time.perf_counter() - t0)
            self.setup_ref.append((before + self.run_kernel()) / 2)
            try:
                self.w.check(out)
            except CheckFailed as exc:
                self.failures.append(f"set-up {i}: {exc}")
            if self.w.reference is None:
                self.w.reference = out

    def checked_step(self, context=contextlib.nullcontext):
        """Restore state, collect the heap, then time one step (inside
        `context`) and check it. Returns (ms, ok); a step that raises counts
        as failed."""
        from workloads import CheckFailed
        self.w.restore()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with context():
                out = self.w.step()
        except Exception:   # counted against fail_ratio, the run goes on
            self.failures.append(traceback.format_exc(limit=4))
            return (time.perf_counter() - t0) * 1e3, False
        elapsed = (time.perf_counter() - t0) * 1e3
        try:
            self.w.check(out)
        except CheckFailed as exc:
            self.failures.append(str(exc))
            return elapsed, False
        return elapsed, True

    def timed_step(self):
        ms, ok = self.checked_step()
        self.step_ms.append(ms)
        self.ok.append(ok)
        self.step_ref.append(self.run_kernel())

    def loop(self, seconds, min_steps, body):
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_MEASURE_S or (len(self.step_ms) >= min_steps and elapsed >= seconds):
                return
            body()

    def end_to_end(self):
        """(host-normalised, raw) end-to-end figures of the untraced steps."""
        ms = self.step_ms
        norm_ms = [m * f for m, f in zip(ms, local_factors(self.step_ref, LOCAL_REFS))]
        norm_setup = [s * hostref.NOMINAL_MS / r for s, r in zip(self.setup_s, self.setup_ref)]
        ok = sum(self.ok)
        raw = {
            "setup_s": statistics.median(self.setup_s),
            "steps_per_s": ok / (sum(ms) / 1e3),
            "step_ms_p50": statistics.median(ms),
            "step_ms_p90": float(np.percentile(ms, 90)),
        }
        norm = {
            "setup_s": statistics.median(norm_setup),
            "steps_per_s": ok / (sum(norm_ms) / 1e3),
            "step_ms_p50": statistics.median(norm_ms),
            "step_ms_p90": float(np.percentile(norm_ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": ok / len(ms),
        }
        return norm, raw


def traced_pass(run, seconds, seed):
    """Interleave untraced and traced steps, then run the count pass, the
    traced extras and the per-op table. Returns (per-layer metrics, record)."""
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracing.TARGETS)
    traced_ref = []

    def pair():
        run.timed_step()
        run.checked_step(lambda: tracing.traced(tracer, patches))
        traced_ref.append(run.run_kernel())

    run.loop(seconds, 1 if run.smoke else MIN_TRACED_PAIRS, pair)
    traced_ms = tracer.durations(tracing.ROOT)
    counts = tracing.count_pass(run.w, COUNT_STEPS)

    extras = tracing.Tracer()
    with tracing.traced(extras, patches):
        run.w.setup()
        n_cells = run.w.traced_extras()
    ops, ops_absent = ({}, [])
    if run.w.uses_default_net:
        ops, ops_absent = tracing.op_table(seed, 2 if run.smoke else OP_REPS)
    run.run_kernel()

    totals, roots = tracer.self_times()
    per_step = {name: total / roots for name, total in totals.items()}
    raw = {f"{name}.self_ms": per_step.get(name, 0.0) for name in SPAN_LAYERS}
    raw["trace.other.self_ms"] = per_step.get("other", 0.0)
    raw["trace.step_ms"] = statistics.fmean(traced_ms)
    loads = extras.durations("snn.load")
    raw["snn.load.ms"] = statistics.median(loads) if loads else 0.0
    profiles = extras.durations("energy.profile_network")
    raw["energy.profile_network.ms_per_cell"] = (statistics.median(profiles) / n_cells
                                                 if profiles else 0.0)
    for op in OP_NAMES:
        for kind in ("fwd_ms", "bwd_ms"):
            raw[f"autodiff.op.{op}.{kind}"] = ops.get(op, {}).get(kind, 0.0)
    # Per-layer figures use one factor: the median reference time of the
    # traced steps.
    f = hostref.NOMINAL_MS / statistics.median(traced_ref)
    metrics = {name: value * f for name, value in raw.items()}
    parses = tracer.durations("events.parse_events")
    parse_ms = statistics.fmean(parses) if parses else 0.0
    raw["events.parse_mev_per_s"] = run.w.input_events / parse_ms / 1e3 if parses else 0.0
    metrics["events.parse_mev_per_s"] = raw["events.parse_mev_per_s"] / f
    metrics.update((name, counts[name]) for name, _ in COUNT_METRICS)
    e2e_norm, e2e_raw = run.end_to_end()
    metrics.update((f"raw.{name}", value) for name, value in {**raw, **e2e_raw}.items())
    metrics["host.ref_ms"] = statistics.median(run.ref_ms)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_ms)
                                             / statistics.median(run.step_ms) - 1.0)
    record = {
        "traced_steps": roots,
        "self_ms_per_step_raw": dict(sorted(per_step.items())),
        "self_ms_sum_raw": sum(per_step.values()),
        "traced_step_ms_mean_raw": raw["trace.step_ms"],
        "absent_layers": sorted(set(patches.absent) | set(ops_absent)),
        "calls_per_step": counts["calls_per_step"],
        "e2e_untraced": e2e_norm,
        "e2e_untraced_raw": e2e_raw,
    }
    return metrics, record, tracer.dump()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _table(name, seed, trace, run, norm, raw, out):
    n = len(run.step_ms)
    ref = statistics.median(run.ref_ms)
    out(f"# {name}  seed={seed}  trace={trace}  steps={n} (p90 has {n - int(0.9 * n)} beyond)"
        f"  set-ups={len(run.setup_s)}  host.ref_ms={ref:.4f} (n={len(run.ref_ms)},"
        f" {min(run.ref_ms):.3f}..{max(run.ref_ms):.3f})")
    units = dict(END_TO_END)
    for key in ("setup_s", "steps_per_s", "step_ms_p50", "step_ms_p90"):
        out(f"  {key:<12} {norm[key]:>12.4f} {units[key]:<5} raw.{key} {raw[key]:.4f}")
    out(f"  {'peak_rss_mb':<12} {norm['peak_rss_mb']:>12.2f} MB")
    fails = len(run.ok) - sum(run.ok)
    out(f"  {'fail_ratio':<12} {fails / len(run.ok):>12.4f}       ({fails} of {len(run.ok)} steps)")


def run_one(args):
    _import_program()
    import workloads
    seed, trace = args.seed, args.trace
    tag = f"{args.workload}_seed{seed}_trace{trace}{'_smoke' if args.smoke else ''}"
    workload = workloads.WORKLOADS[args.workload](seed, HERE / "work" / f"{tag}_{os.getpid()}")
    record = {"workload": args.workload, "seed": seed, "trace": trace, "smoke": args.smoke,
              "seconds": args.seconds, "environment": environment(), **workload.record()}
    run = Run(workload, args.smoke)
    seconds = 0 if args.smoke else args.seconds
    try:
        run.setups()
        if trace:
            metrics, trace_record, spans = traced_pass(run, seconds, seed)
            record["traced"] = trace_record
        else:
            run.loop(seconds, 1 if args.smoke else MIN_STEPS, run.timed_step)
    finally:
        workload.close()
    norm, raw = run.end_to_end()
    if not trace:
        metrics = norm
    spec = per_layer_spec() if trace else END_TO_END
    result = {
        "correct": not run.failures,
        "attempted": len(run.ok),
        "failed": len(run.ok) - sum(run.ok),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in spec},
    }
    record.update({
        "steps": len(run.step_ms), "setup_s_raw": run.setup_s, "setup_ref_ms": run.setup_ref,
        "step_ms_raw": run.step_ms, "step_ref_ms": run.step_ref, "ref_ms": run.ref_ms,
        "end_to_end": norm, "end_to_end_raw": raw, "failures": run.failures[:20],
        "result": result,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans) + "\n")
    _table(args.workload, seed, trace, run, norm, raw, print)
    if trace:
        tr = record["traced"]
        print(f"  traced steps {tr['traced_steps']}: self ms per step sums to "
              f"{tr['self_ms_sum_raw']:.4f} of {tr['traced_step_ms_mean_raw']:.4f} (raw);"
              f" absent layers: {', '.join(tr['absent_layers']) or 'none'}")
        for name, unit in spec:
            print(f"  {name:<44} {metrics[name]:>14.5f} {unit}")
    for failure in run.failures[:3]:
        print(f"  failure: {failure.strip().splitlines()[-1]}")
    print(f"  record: {(OUT / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other; prints every
    end-to-end metric with its unit and sample count."""
    rows = {}
    for name in ("arena-conv", "feedback-dense", "slice-csv"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\n# summary (host-normalised; n = timed steps)")
    for name, res in rows.items():
        cells = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        fail_ratio = res["failed"] / res["attempted"]
        print(f"  {name:<15} n={res['attempted']}  fail_ratio={fail_ratio:.4g}  {cells}")
    print(json.dumps(rows))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["arena-conv", "feedback-dense", "slice-csv", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one step (plus the count pass): a schema check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
