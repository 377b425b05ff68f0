"""Run one ngg benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root: the program is imported from ./src and the
metric names and units come from ./BENCHMARK.json. Set-up builds the
workload's fixed inputs from the seed. The run then repeats one identical
pass of work while the next pass still fits in S seconds (three passes at
least), checks every pass's output and compares its digests with the first
pass. The first pass is a warm-up: it is checked but not timed. Temporary
files live under ./.bench_work and are removed on exit.

The environment is pinned for every process the run starts: NGG_PARALLELISM
is removed, so sweeps run sequentially as their config says, and OpenBLAS
gets one thread, so network statistics do not compete with the rest of a
two-core machine.

--trace 0 reports the end-to-end metrics: set-up time (median of this
process and four more set-ups in child processes), operations per second
(the operations of all timed passes over their summed time) and peak RSS. The
throughput is pooled rather than a median of passes because a shared host
drifts between a fast and a slower state for tens of seconds at a time: a
median of passes snaps to whichever state held most of the run, while the
pooled rate weighs each state by the time it held. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (median over passes), plus the traced pass time over the untraced
median.

The last line of stdout is the result JSON; the line before it is the run
record: digest, pass times, failure count and environment.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("group_canonical", "baseline_sweep", "net_build")
SETUP_REPEATS = 5
MIN_PASSES = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (for the self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up seconds, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child_setup_seconds(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                          cwd=ROOT, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _measure(workload, work: Path, seconds: float, tracer):
    """Repeat identical passes; with a tracer, every second pass is traced."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        out.mkdir()
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.assert_removed()
        t = time.perf_counter()
        try:
            result = workload.run_pass(out)
        finally:
            elapsed = time.perf_counter() - t
            if traced:
                tracer.remove()
        passes.append({
            "traced": traced,
            "seconds": elapsed,
            "layers": tracer.pass_metrics() if traced else None,
            "check": workload.check(result, out),
        })
        shutil.rmtree(out)
        spent = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and spent + elapsed > seconds:
            return passes


def _tally(passes):
    """(attempted, failed, digest, notes) over every pass.

    An operation fails when its own check fails, when the artifacts its pass
    shares fail, or when its digest differs from the first pass.
    """
    first = passes[0]["check"]
    reference = {o.key: o.digest for o in first.outcomes}
    attempted = failed = 0
    notes = []
    for i, p in enumerate(passes):
        check = p["check"]
        shared_bad = (not check.shared_ok
                      or check.shared_digest != first.shared_digest)
        notes += [f"pass {i}: {n}" for n in check.notes]
        for o in check.outcomes:
            attempted += 1
            bad = not o.ok or shared_bad or o.digest != reference[o.key]
            failed += bad
            if bad:
                notes.append(f"pass {i}: {o.key} failed")
    lines = [f"{o.key} {o.digest}" for o in first.outcomes]
    lines.append(f"shared {first.shared_digest}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return attempted, failed, digest, notes


def _with_units(values: dict, specs: list) -> dict:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def main(argv=None) -> int:
    args = _parse_args(argv)
    ignored_parallelism = os.environ.pop("NGG_PARALLELISM", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "ngg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {src / 'ngg'} or {spec_path} is missing; run from a "
              "checkout of the ngg repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import spans
    import workloads
    from ngg import cli, engine, harness, metrics, netgen

    spec = json.loads(spec_path.read_text())

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        scale = workloads.SCALES["tiny" if args.tiny else "paper"]
        workload = workloads.WORKLOADS[args.workload](args.seed, scale, work)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(repr(setup_s))
            return 0

        tracer = None
        setup_samples = [setup_s]
        if args.trace:
            tracer = spans.Tracer(spans.layer_targets(
                engine, metrics, netgen, harness, cli))
        else:
            setup_samples += [_child_setup_seconds(args)
                              for _ in range(SETUP_REPEATS - 1)]
        passes = _measure(workload, work, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted, failed, digest, notes = _tally(passes)
    ops_per_pass = sum(o.work for o in passes[0]["check"].outcomes)
    timed = passes[1:]  # the first pass warms caches and lazy imports
    untraced = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    untraced_s = statistics.median(p["seconds"] for p in untraced)
    if args.trace:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["bench.trace_overhead"] = (
            statistics.median(p["seconds"] for p in traced) / untraced_s)
        result_metrics = _with_units(values, spec["per_layer"])
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": (ops_per_pass * len(timed)
                          / sum(p["seconds"] for p in timed)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result_metrics = _with_units(values, spec["end_to_end"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": "tiny" if args.tiny else "paper",
        "trace": args.trace,
        "op": workload.op,
        "ops_per_pass": ops_per_pass,
        "digest": digest,
        "failed_frac": failed / attempted,
        "notes": notes,
        "warmup_pass_s": passes[0]["seconds"],
        "pass_s": [p["seconds"] for p in untraced],
        "traced_pass_s": [p["seconds"] for p in traced],
        "setup_s": setup_samples,
        "env": {
            "git_revision": _git_revision(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "workers": workload.workers,
            "NGG_PARALLELISM_ignored": ignored_parallelism,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
