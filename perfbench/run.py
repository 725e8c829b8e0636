"""irvis benchmark: run one workload for a fixed time, check its outputs and
print its metrics.

    python3 perfbench/run.py --workload train_lora --seed 0 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The exit
code is 0 only when every operation succeeded and every output check passed.
See ``perfbench/README.md`` for the workloads and what each metric should move.
"""

import os

# One process, one thread: pin BLAS before numpy is imported here or in any
# child interpreter, which inherits this environment.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Not used while the benchmark was tuned; later claims must hold on it too.
HELD_OUT_SEED = 4099
# Seconds the calibration kernel takes at the reference machine speed.  The
# host's speed drifts by a quarter within minutes, so every time is reported
# at this speed: raw time * CAL_REF_S / (calibration time measured next to it).
CAL_REF_S = 0.09

# name -> (unit, better): what a user of the system sees.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "step_ms.p50": ("ms", "lower"),
    "step_ms.p90": ("ms", "lower"),
    "samples_per_s": ("pairs/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", default="full", help="full, or tiny for the self-tests")
    p.add_argument("--reference", default=str(REFERENCE))
    p.add_argument("--setup-only", action="store_true",
                   help="do the workload's set-up and exit (timed by the parent run)")
    return p.parse_args(argv)


def median(values) -> float:
    return float(np.median(values))


def calibrate() -> float:
    """Seconds for a fixed interpreter-bound numpy loop that uses nothing from
    the program, so only the machine's speed moves it."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 32))
    w = rng.standard_normal((32, 96))
    start = perf_counter()
    for _ in range(1600):
        h = x @ w
        s = h[:, :32] @ h[:, 32:64].T * 0.17
        s = np.exp(s - s.max(axis=1, keepdims=True))
        s /= s.sum(axis=1, keepdims=True)
        o = s @ h[:, 64:]
        o = (o - o.mean(axis=1, keepdims=True)) / np.sqrt(o.var(axis=1, keepdims=True) + 1e-6)
    return perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Multiplier taking a time measured between two calibrations to the
    reference machine speed."""
    return CAL_REF_S / ((before + after) / 2)


def setup_seconds(args, repeats: int, failures: list) -> list[float]:
    """Wall time of fresh interpreters that each do the set-up and exit, at
    the reference machine speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--profile", args.profile, "--setup-only"]
    times = []
    before = calibrate()
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = perf_counter() - start
        after = calibrate()
        times.append(elapsed * speed_factor(before, after))
        before = after
        if proc.returncode != 0:
            failures.append("set-up failed: " + proc.stderr.decode(errors="replace")[-400:])
    return times


def provenance(args) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split() if git.returncode == 0 else []
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    # Only this checkout's own repository counts, not one that encloses it.
    commit = lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT \
        else "not a git checkout"
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "profile": args.profile, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": openblas, "blas_pin": BLAS_PIN,
        "git_commit": commit, "closed_loop": "one client, next unit after the last returns",
    }


def end_to_end(untraced, setup_times, peak_rss_mb) -> dict:
    """The end-to-end metrics, every time at the reference machine speed."""
    # Step latency is that of adapter-training steps on every workload: the
    # grid's full fine-tune rows form a second mode that would put its median
    # in the gap between the two.
    steps = [ms * r.speed for r in untraced
             for ms, lora in zip(r.step_ms, r.lora_steps) if lora]
    walls = [r.wall_s * r.speed for r in untraced]
    values = {
        "setup_s": median(setup_times),
        "wall_s": median(walls),
        "step_ms.p50": float(np.percentile(steps, 50)),
        "step_ms.p90": float(np.percentile(steps, 90)),
        "samples_per_s": sum(r.pairs_trained for r in untraced) / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()}


def quality(results) -> dict:
    """Medians of the workload's quality figures over its units."""
    names = sorted({k for r in results for k in r.quality})
    return {k: median([r.quality[k] for r in results if k in r.quality]) for k in names}


def measure(workload, reference, args, tracer):
    """Run units back to back until one more, at the median unit time so far,
    would pass ``args.seconds``; with a tracer, every second unit is traced.
    A calibration before and after each unit sets the unit's speed factor.

    Returns the unit results, which of them were traced, and the traceback of
    a unit that raised, if one did (the loop stops there).
    """
    keys = workload.keys(args.seed & 0xFFFFFFFF)
    results, traced_flags = [], []
    start = perf_counter()
    before = calibrate()
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        key = next(keys)
        try:
            result = workload.run_unit(key, reference.get(str(key)),
                                       tracer if traced else None)
        except Exception:  # a crash in the program is a failed operation
            return results, traced_flags, f"unit {key} raised:\n{traceback.format_exc()}"
        after = calibrate()
        result.speed = speed_factor(before, after)
        before = after
        results.append(result)
        traced_flags.append(traced)
        if result.failed:
            return results, traced_flags, None
        elapsed = perf_counter() - start
        if len(results) >= (2 if tracer else 1) and \
                elapsed + median([r.wall_s for r in results]) > args.seconds:
            return results, traced_flags, None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "irvis" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'irvis'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ROOT, args.profile)
    workload.setup()
    if args.setup_only:
        return 0
    reference = json.loads(Path(args.reference).read_text())[args.profile][args.workload]

    start = perf_counter()
    results, traced_flags, raised = measure(workload, reference, args,
                                            tracing.Tracer() if args.trace else None)
    timed_s = perf_counter() - start
    failures = [raised] if raised else []
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_fresh" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    setup_times = setup_seconds(args, workloads.PROFILES[args.profile]["setup_repeats"],
                                failures)

    # Operations are steps, CLI commands, output checks and set-ups; a unit
    # that raised counts as one failed operation.
    attempted = sum(r.attempted for r in results) + len(setup_times) + bool(raised)
    failed = sum(r.failed for r in results) + len(failures)
    for r in results:
        failures += [f"unit {r.key}: {msg}" for msg in r.failed_commands + r.failures]
    untraced = [r for r, t in zip(results, traced_flags) if not t]
    traced = [r for r, t in zip(results, traced_flags) if t]

    print(f"perfbench {args.workload}: {len(results)} units ({len(traced)} traced) "
          f"in {timed_s:.1f} s; {sum(len(r.step_ms) for r in untraced)} untraced steps, "
          f"{sum(sum(r.lora_steps) for r in untraced)} of them training adapters")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    if untraced:
        print(f"raw wall_s {median([r.wall_s for r in untraced])!r} s; machine speed factor "
              f"median {median([r.speed for r in results])!r} "
              f"(calibration reference {CAL_REF_S} s)")
    for name, value in quality(results).items():
        print(f"quality {name} {value!r} 1")
    print(f"quality failed_ratio {failed / max(attempted, 1)!r} 1")
    for msg in failures:
        print("FAILED " + msg.replace("\n", "\n    "), file=sys.stderr)

    metrics = {}  # none from a run whose outputs are wrong
    if not failed and args.trace:
        summaries = [tracing.summarize_unit(r.spans, r.speed) for r in traced]
        overhead = (median([r.wall_s * r.speed for r in traced])
                    / median([r.wall_s * r.speed for r in untraced]) - 1)
        metrics = tracing.per_layer_metrics(summaries, overhead)
        out = ROOT / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps([{"key": r.key, "spans": r.spans} for r in traced]))
        print(f"spans written to {out.relative_to(ROOT)}")
    elif not failed:
        metrics = end_to_end(untraced, setup_times, peak_rss_mb)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
