"""Run the ngg benchmark workloads, each in its own process, and summarise.

    python3 bench/report.py [--workloads NAME ...] [--seeds N ...]
                            [--seconds S] [--trace] [--out FILE]
    python3 bench/report.py --selftest

Run it from the repository root. For every workload and seed it starts
`bench/run.py` once with --trace 0 (and once more with --trace 1 when asked)
and prints each metric of BENCHMARK.json by name and unit: the median over
seeds, the quartiles and their distance as a share of the median, against the
metric's bound. It also prints the failure fraction and the output digests.
--out writes every run's record and result as JSON.

--selftest runs every workload at tiny scale for one second, traced and
untraced, and fails unless every metric is printed with its unit, nothing
failed, the digests repeat and, on group_canonical, the engine phase spans
cover at least 90% of round time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MIN_PHASE_COVERAGE = 0.9


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    """One fresh run.py process; returns its run record and result."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1])}


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarise(workload: str, runs: list, specs: list) -> None:
    records = [r["record"] for r in runs]
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    op = records[0]["op"]
    print(f"\n{workload}  ({len(runs)} runs, op = {op}, "
          f"trace {records[0]['trace']})")
    for spec in specs:
        name = spec["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        label = name
        if name == "ops_per_s":
            label += " = iters_per_s" if op == "iteration" else " = networks_per_s"
        bound = spec.get("bound")
        verdict = "" if bound is None else (
            f"  spread {rel:.3f} of bound {bound}"
            + ("" if rel <= bound / 3 else "  WIDE"))
        print(f"  {label:44s} {med:14.6g} {spec['unit']:6s}"
              f" q1 {q1:.6g} q3 {q3:.6g}{verdict}")
    print(f"  {'failed_frac':44s} {failed / attempted:14.6g}"
          f"        ({failed} of {attempted})")
    for rec in records:
        print(f"  seed {rec['seed']:<6d} digest {rec['digest']}")
    env = records[0]["env"]
    print(f"  env: {json.dumps(env)}")


def selftest() -> int:
    problems = []
    for workload in WORKLOADS:
        digests = set()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = run_workload(workload, 1, 1.0, trace, tiny=True)
            result, record = run["result"], run["record"]
            digests.add(record["digest"])
            printed = result["metrics"]
            for spec in SPEC[key]:
                got = printed.get(spec["name"])
                if got is None or got.get("unit") != spec["unit"]:
                    problems.append(f"{workload}: {spec['name']} not printed "
                                    f"with unit {spec['unit']}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: "
                                f"{result['failed']} failed: {record['notes']}")
            if trace and workload == "group_canonical":
                cover = printed["engine.phase_coverage"]["value"]
                if cover < MIN_PHASE_COVERAGE:
                    problems.append(f"{workload}: phase spans cover {cover:.3f}"
                                    f" of engine.round")
        if len(digests) != 1:
            problems.append(f"{workload}: digests differ between runs")
        print(f"{workload}: digest {digests.pop()}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true",
                        help="also run the traced pass for per-layer metrics")
    parser.add_argument("--out", default=None, help="write all runs as JSON")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()

    everything = {}
    modes = [(0, SPEC["end_to_end"])] + ([(1, SPEC["per_layer"])]
                                         if args.trace else [])
    for workload in args.workloads:
        for trace, specs in modes:
            runs = [run_workload(workload, seed, args.seconds, trace)
                    for seed in args.seeds]
            everything[f"{workload}/trace{trace}"] = runs
            summarise(workload, runs, specs)
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
