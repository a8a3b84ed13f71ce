"""kreinlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kreinlab checkout; the package is imported from
`src/`.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it records spans around every public kreinlab call and reports
the per-layer metrics instead.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Files go to
perfbench/_runs/.

Every reported time is rescaled to a reference host speed with the
calibration kernel of `hostspeed.py`, which runs after every timed call.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller chose otherwise.  On a shared 2-CPU
# host, two threads made extend_dense ops 30 % slower and their run-to-run
# spread twice as wide (see README.md).  Children inherit the setting.  It
# must be set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hostspeed import Rescaler  # noqa: E402 - imports numpy
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
LAYER_PROBES = 3
# Kernel runs after each probe, whose child process can disturb the first.
PROBE_KERNELS = 3

WORKLOAD_NAMES = ("extend_dense", "model_sweep", "quasibasis_grid", "cli_small")
# The calibration kernel whose operations each workload's ops resemble.
# Set-up probes are child processes, rescaled with the "spawn" kernel.
WORKLOAD_KERNELS = {"extend_dense": "mixed", "model_sweep": "lapack",
                    "quasibasis_grid": "vector", "cli_small": "spawn"}
# Public functions wrapped in spans; each yields <name>.calls and <name>.self_s.
SPANS = (
    "extensions.krein_interval", "extensions.classify_case",
    "extensions.solve_x_equation", "extensions.extension_from_x",
    "extensions.extremality_test", "extensions.density_test",
    "serialize.matrix_from_obj", "serialize.matrix_to_obj", "serialize.dumps_report",
    "spaces.SignatureSpace", "angular.PartialContraction",
    "gmetric.GMetric.from_contraction", "gmetric.metric_report",
    "sequence_model.build_model", "sequence_model.defect_prediction",
    "sequence_model.xi_preimage_diagnostic", "sequence_model.truncated_density_sweep",
    "sequence_model.classify_analytic",
    "quasibasis.shifted_family", "quasibasis.anharmonic_family",
    "quasibasis.sign_pattern", "quasibasis.indefinite_gram", "quasibasis.metric_gram",
    "quasibasis.weighted_gram", "quasibasis.eigen_residual",
    "quasibasis.biorthogonal_gram", "quasibasis.expansion", "quasibasis.h_gram_in_g",
    "quasibasis.c_action", "quasibasis.c_action_multiplier",
)
CLI_SUBCOMMANDS = ("extend", "solve-x", "classify-model", "quasi-basis.hermite",
                   "quasi-basis.anharmonic", "verify")
PROBE_METRICS = ("cli.python_s", "cli.floor_s", "cli.import_s",
                 "verify.run_verification.default_threads_s",
                 "verify.run_verification.threads1_s")

END_TO_END = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{span}.{kind}": unit for span in SPANS
       for kind, unit in (("calls", "calls/op"), ("self_s", "s/op"))},
    "serialize.dumps_report.bytes": "bytes/call",
    **{f"cli.{sub}.wall_s": "s" for sub in CLI_SUBCOMMANDS},
    **{probe: "s" for probe in PROBE_METRICS},
    "hostspeed.kernel_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


def set_up(name: str, seed: int, rundir: Path):
    """Imports, input generation and warm-up: everything before the first
    timed op.  Returns the workload and the digest of its inputs."""
    sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.WORKLOADS[name](seed, rundir)
    return workload, workload.setup()


def time_setup(args, rundir: Path) -> list[float]:
    """Set-up time of fresh processes, from spawn to the end of warm-up,
    at reference host speed."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", str(rundir / "probe")]
    clock = Rescaler("spawn", after=PROBE_KERNELS)
    for _ in range(SETUP_PROBES):
        line, code = clock.time(probe, argv)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return clock.rescaled()


def probe(argv: list[str]) -> tuple[bytes, int]:
    """Start a set-up probe and wait until it reports ready and exits."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    with proc.stdout:
        line = proc.stdout.readline()
    return line, proc.wait()


def measure(workload, seconds: float, traced: bool, clock: Rescaler):
    """Closed loop with one client: whole rounds of ops until `seconds` pass.

    Untraced, every op runs once.  Traced, every op runs once untraced and
    once traced, in alternating order, so the two wall times give the
    tracing overhead.  A failed op stays in every count.  Latencies are at
    reference host speed; `scales` maps each traced op to its factor.
    """
    plain, tracer = Tracer(False), Tracer(traced)
    failures: list[str] = []
    modes_run: list[tuple[int, bool]] = []
    op_id = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        for item in workload.round(r):
            modes = [plain] if not traced else ([plain, tracer] if op_id % 2 else [tracer, plain])
            for tr in modes:
                tr.op = op_id
                modes_run.append((op_id, tr.enabled))
                try:
                    out = clock.time(tr.call, "op", workload.op, item, tr)
                    error = None
                except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                    error = f"raised {type(exc).__name__}: {exc}"
                if error is None:
                    try:
                        workload.check(item, out)
                    except Exception as exc:  # noqa: BLE001 - any check error fails the op
                        error = f"check failed: {type(exc).__name__}: {exc}"
                if error is not None:
                    failures.append(error)
            op_id += 1
        r += 1
    latencies = clock.rescaled()
    wall = {False: 0.0, True: 0.0}
    scales: dict[int, float] = {}
    for (op, enabled), latency, factor in zip(modes_run, latencies, clock.factors()):
        wall[enabled] += latency
        if enabled:
            scales[op] = factor
    print(f"wall-clock median op {statistics.median(clock.raw()):.6g} s; "
          f"median kernel {statistics.median(clock.samples):.6g} s ({clock.kind})")
    return latencies, failures, tracer, wall, scales


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, or the maximum for fewer than 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def environment(args, digest: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "KREIN_LAB_THREADS": os.environ.get("KREIN_LAB_THREADS"),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": digest,
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def end_to_end(workload, setup_times, latencies, failures) -> dict:
    value, pct, beyond = tail(latencies)
    print(f"latency_tail_s is p{pct:.1f} of {len(latencies)} samples ({beyond} beyond)")
    if hasattr(workload, "peak_rss_kb"):
        rss_kb = workload.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    completed = len(latencies) - len(failures)
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "ops_per_s": completed / sum(latencies),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(workload, tracer, wall, scales, clock, op_count: int) -> dict:
    summary = tracer.summary(op_count, scales)
    out = {}
    for span in SPANS:
        out[f"{span}.calls"], out[f"{span}.self_s"] = summary["layers"].get(span, (0.0, 0.0))
    dumps_calls = out["serialize.dumps_report.calls"] * op_count
    total_bytes = tracer.counts.get("serialize.dumps_report.bytes", 0.0)
    out["serialize.dumps_report.bytes"] = total_bytes / dumps_calls if dumps_calls else 0.0
    walls: dict[str, list[float]] = {}
    for s in tracer.spans:
        if s["name"].startswith("cli."):
            walls.setdefault(s["name"][4:], []).append(
                (s["end"] - s["start"]) * scales[s["op"]])
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = statistics.median(walls.get(sub, [0.0]))
    probes = (workload.layer_probes(LAYER_PROBES, Rescaler(clock.kind, after=PROBE_KERNELS))
              if hasattr(workload, "layer_probes") else {})
    for name in PROBE_METRICS:
        out[name] = probes.get(name, 0.0)
    out["hostspeed.kernel_s"] = statistics.median(clock.samples)
    out["trace.overhead_frac"] = wall[True] / wall[False] - 1.0
    out["trace.coverage_frac"] = summary["coverage"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "kreinlab" / "__init__.py").is_file():
        print(f"error: no kreinlab source tree under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe is not None:
        args.setup_probe.mkdir(parents=True, exist_ok=True)
        set_up(args.workload, args.seed, args.setup_probe)
        print("ready", flush=True)
        return 0

    rundir = HERE / "_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir.mkdir(parents=True, exist_ok=True)
    setup_times = time_setup(args, rundir) if not args.trace else []
    workload, digest = set_up(args.workload, args.seed, rundir)
    env = environment(args, digest)
    (rundir / "env.json").write_text(json.dumps(env, indent=1))
    print("env " + json.dumps(env))

    clock = Rescaler(WORKLOAD_KERNELS[args.workload])
    latencies, failures, tracer, wall, scales = measure(
        workload, args.seconds, bool(args.trace), clock)
    if args.trace:
        values = per_layer(workload, tracer, wall, scales, clock, len(latencies) // 2)
        units = PER_LAYER
        tracer.write(rundir / "spans.json")
    else:
        values = end_to_end(workload, setup_times, latencies, failures)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for reason in sorted(set(failures)):
        print(f"failure ({failures.count(reason)}x): {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {len(failures) / len(latencies):.6g} "
          f"({len(failures)} failed of {len(latencies)} attempted)")
    print(json.dumps({"correct": not failures, "attempted": len(latencies),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
