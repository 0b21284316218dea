"""splinegauss benchmark: three closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload trace-golden --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):

* ``trace-uniform-scaling``: ``trace`` of uniform C^1 quintics, N = 5..40.
  The source-rule self-check, the dense LU and any uniform fast path do
  their work here; it is the workload that shows how cost grows with N.
* ``trace-golden``: the 11 golden-table spaces plus three seeded
  non-uniform meshes.  Small systems at degrees 5-9: per-point basis cost
  and the step policy dominate; the non-uniform meshes bypass any
  uniform-only fast path.
* ``mesh-pipeline``: ``hybrid_rule(5, 0, N)`` for N = 251 and 1001, then
  Galerkin assembly, JSON/CSV documents and the ``validate`` command.

Every round feeds each mesh through the same path (rule, pattern check for
uniform C^1 meshes, assembly where a trial discretization fits, write,
read, validate) and gates every output.  Rounds repeat until ``--seconds``
have passed.

Times are reported in seconds at a reference host speed: a fixed kernel
that runs no package code is sampled between ops, and each round's op
times are scaled by its nominal time over its median time in the round
(reference.py says why).  Each op is summarised by its median scaled time
over the rounds.  The unscaled figures are printed as well and kept in
the record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` every case runs twice per round, untraced and traced from
outside the package (spans.py), and the run reports the per-layer metrics
plus the tracing overhead, all unscaled; end-to-end numbers never come
from it.  Set-up (import, inputs, warm-up) is timed in this process and in
a few fresh ones, each scaled by the reference kernel run right after it,
and reported as their median.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 if any op failed and 2 if
the package or its golden tables are missing.  A fuller record goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 9  # this process plus eight fresh ones
PROBE_TIMEOUT_S = 60
REFERENCE_SETUP_CALLS = 3  # kernel calls after each set-up, median taken
# end-to-end figures that are printed and recorded but carry no bound in
# BENCHMARK.json: on the trace workloads these stages last tens of
# milliseconds, too short to hold any bound on a host whose speed drifts
# (IQR/median up to 0.29 over ten seeds); wall_s covers them
UNGATED_UNITS = {"assemble_s": "s", "validate_s": "s"}


def setup_reference() -> float:
    """Median reference kernel seconds, measured right after a set-up."""
    from reference import reference_seconds

    return statistics.median(reference_seconds() for _ in range(REFERENCE_SETUP_CALLS))


def setup(workload: str, seed: int):
    """Import the package, build the inputs and warm up; returns (module, workload, seconds)."""
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    warm = workloads.WARM_UP[workload]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"warm-up-{os.getpid()}"
    workdir.mkdir()
    try:
        # failures surface in the measured rounds, which gate every op
        workloads.run_case(warm, wl, workdir, _timed, workloads.table_tolerances())
    finally:
        shutil.rmtree(workdir)
    return workloads, wl, time.perf_counter() - start


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def probe_setups(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(set-up, reference) seconds measured in ``count`` fresh interpreters, one at a time."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], probe["reference_s"]))
    return times


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def end_to_end(rounds: list[dict], scales: list[float], cases, setup_times: list[float]) -> dict:
    """The end-to-end metrics from untraced rounds.

    Each op (case, stage) is summarised by the median over the rounds of
    its time times the round's scale (see the module notes), and a round's
    figures are sums of those.
    """
    best = {}
    for c in cases:
        for stage in {s for r in rounds for s in r[c.key].times}:
            best[c.key, stage] = statistics.median(
                r[c.key].times[stage] * scale
                for r, scale in zip(rounds, scales)
                if stage in r[c.key].times
            )

    def total(stage=None):
        return sum(t for (_, s), t in best.items() if stage in (None, s))

    made = [c for c in cases if (c.key, "rule") in best]
    pipeline = [sum(t for (k, _), t in best.items() if k == c.key) for c in made]
    nodes = sum(max(r[c.key].nodes for r in rounds) for c in made)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": total(),
        "rule_s": statistics.median(best[c.key, "rule"] for c in made),
        "us_per_node": 1e6 * total("rule") / nodes,
        "scaling_exp": _slope(
            [math.log(c.space.dimension) for c in made], [math.log(t) for t in pipeline]
        ),
        "assemble_s": total("assemble"),
        "validate_s": total("validate"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(layer_rounds: list[dict], traced: list[float], untraced: list[float]) -> dict:
    """Median (lower middle) of each per-layer metric over traced rounds, plus overhead."""
    out = {
        name: statistics.median_low(r[name] for r in layer_rounds)
        for name in layer_rounds[0]
    }
    out["tracing.wall_s"] = statistics.median_low(traced)
    out["tracing.untraced_wall_s"] = statistics.median_low(untraced)
    out["tracing.overhead"] = out["tracing.wall_s"] / out["tracing.untraced_wall_s"] - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("trace-uniform-scaling", "trace-golden", "mesh-pipeline"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/splinegauss", "tests/golden", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    workloads, wl, own_setup = setup(args.workload, args.seed)
    own_reference = setup_reference()
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup, "reference_s": own_reference}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tolerances = workloads.table_tolerances()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    else:
        # only the end-to-end run, which reports scaled times, gauges the host
        from reference import REFERENCE_S, Gauge

        gauge = Gauge()

    def gauged(fn):
        timed = _timed(fn)
        gauge.between_ops()
        return timed

    def traced_run(case):
        tracer.install()

        def measure(fn):
            tracer.active = True
            try:
                return _timed(fn)
            finally:
                tracer.active = False

        try:
            return workloads.run_case(case, wl, workdir, measure, tolerances)
        finally:
            tracer.uninstall()

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    rounds, traced_rounds, layer_rounds, errors = [], [], [], []
    scales, references = [], []  # per untraced round
    attempted = failed = 0
    first_digest: dict[str, str] = {}
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            plain, traced = {}, {}
            passes = [False]
            if tracer:
                tracer.reset()
                # each case runs untraced and traced back to back, in an
                # order that alternates by round, so that drift in machine
                # speed cancels out of the overhead
                passes = [False, True] if len(rounds) % 2 == 0 else [True, False]
            else:
                gauge.sample()
            for case in wl.cases:
                for is_traced in passes:
                    if is_traced:
                        run = traced[case.key] = traced_run(case)
                    else:
                        run = plain[case.key] = workloads.run_case(
                            case, wl, workdir, _timed if tracer else gauged, tolerances
                        )
                    attempted += run.attempted
                    failed += run.failed
                    errors += run.errors
                    if run.digest is not None:
                        if first_digest.setdefault(case.key, run.digest) != run.digest:
                            failed += 1
                            errors.append(f"{case.key}: rule differs from its first run")
            rounds.append(plain)
            if tracer:
                traced_rounds.append(traced)
                layer_rounds.append(tracer.metrics())
            else:
                scale, samples = gauge.close_round()
                scales.append(scale)
                references.append(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def round_total(runs):
        return sum(sum(run.times.values()) for run in runs.values())

    raw = {}  # unscaled end-to-end figures, printed and recorded beside the metrics
    if args.trace:
        metrics = per_layer(
            layer_rounds,
            [round_total(r) for r in traced_rounds],
            [round_total(r) for r in rounds],
        )
        kind = "per_layer"
    else:
        setups = [(own_setup, own_reference)]
        setups += probe_setups(args.workload, args.seed, SETUP_RUNS - 1)
        metrics = end_to_end(
            rounds, scales, wl.cases, [t * REFERENCE_S / ref for t, ref in setups]
        )
        raw = end_to_end(rounds, [1.0] * len(rounds), wl.cases, [t for t, _ in setups])
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    ungated = {n: metrics.pop(n) for n in UNGATED_UNITS if n in metrics}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )

    env = environment()
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    def show(name, value, unit, note=""):
        if name in raw:
            note = f" (unscaled {raw[name]:.6g}){note}"
        print(f"{name} {value:.6g} {unit}{note}")

    for name, value in metrics.items():
        show(name, value, units[name])
    for name, value in ungated.items():
        show(name, value, UNGATED_UNITS[name], " (no bound)")
    fail_ratio = failed / attempted
    print(f"fail_ratio {fail_ratio:.6g} 1 ({failed} of {attempted} ops)")
    for message in errors[:20]:
        print(f"FAILED {message}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        fail_ratio=fail_ratio,
        ungated=ungated,
        unscaled=raw,
        scales=scales,
        references=references,
        errors=errors,
        environment=env,
        benchmark=spec,
        rounds=[{k: run.times for k, run in r.items()} for r in rounds],
        traced_rounds=[{k: run.times for k, run in r.items()} for r in traced_rounds],
    )
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
