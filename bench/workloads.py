"""The benchmark's workloads: fixed inputs, one timed pass, output checks.

Each workload builds its fixed inputs from the benchmark seed when it is
constructed (that is set-up), runs one pass of work through the program's
public entry points in `run_pass` (that is what is timed), and checks the
pass's outputs in `check`, outside the timed region. Every pass of one
invocation does identical work, so the outputs' SHA-256 digests must repeat.

An operation, for failure counting, is one game run (`group_canonical`,
`baseline_sweep`) or one network (`net_build`); `Outcome.work` is what
throughput counts: game iterations, or 1 per network.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ngg import cli, engine, harness, metrics, netgen

BETAS = (0.2, 0.5, 0.8)

# Paper scale is what the benchmark measures; tiny scale keeps the self-test
# short. net_build stays at M=1000 in both, because its output check uses the
# M=1000 reference statistics.
SCALES = {
    "paper": {"m": 1000, "n": 20, "seeds_per_point": 2, "repetitions": 6,
              "net_seeds": 2,
              "nets": {"rg": {"p": 0.05}, "ws": {"k": 20, "rp": 0.2},
                       "ba": {"n0": 51, "e": 50}}},
    "tiny": {"m": 200, "n": 20, "seeds_per_point": 1, "repetitions": 2,
             "net_seeds": 1,
             "nets": {"rg": {"p": 0.15}, "ws": {"k": 10, "rp": 0.2},
                      "ba": {"n0": 21, "e": 20}}},
}

NET_M = 1000
NET_KNOBS = SCALES["paper"]["nets"]
# tests/test_acceptance.py criterion 1 at M=1000: (avg_degree,
# avg_path_length, clustering) and the relative tolerance of each.
NET_REFERENCE = {
    "rg": ((49.9, 2.0285, 0.0502), (0.05, 0.05, 0.15)),
    "ws": ((40.0, 2.4651, 0.3837), (0.05, 0.05, 0.15)),
    "ba": ((89.7, 1.9133, 0.1681), (0.15, 0.15, 0.15)),
}


@dataclass
class Outcome:
    key: str
    ok: bool
    digest: str
    work: int


@dataclass
class PassCheck:
    """Per-operation outcomes plus artifacts the whole pass shares."""

    outcomes: list
    shared_ok: bool = True
    shared_digest: str = ""
    notes: list = field(default_factory=list)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _converged_trace(path: Path, m: int) -> tuple:
    """(iterations, ok): ok when the trace ends at n_total == m, n_diff == 1."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or tuple(rows[0]) != metrics.TRACE_FIELDS:
        return 0, False
    last = rows[-1]
    ok = (int(last[0]) == len(rows) - 1 and int(last[1]) == m
          and int(last[2]) == 1)
    return len(rows) - 1, ok


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class GroupCanonical:
    """`run_to_convergence` in mode ngg over rg/ws/ba x beta 0.2/0.5/0.8."""

    op = "iteration"
    workers = 1

    def __init__(self, seed: int, scale: dict, work: Path):
        self.m = scale["m"]
        self.points = []
        for fi, (model, knobs) in enumerate(scale["nets"].items()):
            spec = netgen.NetworkSpec(model, self.m, **knobs)
            net = netgen.generate(spec, np.random.default_rng(
                harness.derive_seed(seed, 1000 + fi, 0)))
            for bi, beta in enumerate(BETAS):
                pi = 3 * fi + bi
                seeds = [harness.derive_seed(seed, pi, k)
                         for k in range(scale["seeds_per_point"])]
                self.points.append((f"{model}_beta{beta}", net,
                                    engine.GameParams(n=scale["n"], beta=beta),
                                    seeds))

    def run_pass(self, out: Path):
        return {f"{label}_seed{k}": engine.run_to_convergence(net, params, s)
                for label, net, params, seeds in self.points
                for k, s in enumerate(seeds)}

    def check(self, result, out: Path) -> PassCheck:
        outcomes = []
        for key, (records, summary) in result.items():
            path = out / f"{key}.csv"
            metrics.write_trace_csv(records, path)
            last = records[-1]
            ok = (summary.converged and last.n_total == self.m
                  and last.n_diff == 1)
            outcomes.append(Outcome(key, ok, _sha256(path), len(records)))
        return PassCheck(outcomes)


class BaselineSweep:
    """`ngg sweep` of the ngmh and minimal baselines on ba, then `ngg plot`."""

    op = "iteration"
    modes = ("ngmh", "minimal")

    def __init__(self, seed: int, scale: dict, work: Path):
        self.m = scale["m"]
        self.repetitions = scale["repetitions"]
        self.config = work / "baseline_sweep.json"
        self.config.write_text(json.dumps({
            "network": {"model": "ba", "m": self.m, **scale["nets"]["ba"]},
            "game": {"n": scale["n"], "beta": 0.5},
            "repetitions": self.repetitions,
            "master_seed": seed,
            "sweep": {"modes": list(self.modes)},
            "parallelism": 1,
        }))
        self.workers = harness.load_config(self.config).parallelism

    def run_pass(self, out: Path):
        sweep = out / "sweep"
        codes = [_quiet(cli.main, ["sweep", "--config", str(self.config),
                                   "--out", str(sweep)])]
        averages = [str(sweep / f"point{p:03d}_avg.csv")
                    for p in range(len(self.modes))]
        codes.append(_quiet(cli.main, ["plot", "--kind", "n-diff", "--inputs",
                                       *averages, "--out",
                                       str(out / "n_diff.svg")]))
        return codes

    def check(self, codes, out: Path) -> PassCheck:
        sweep = out / "sweep"
        check = PassCheck([])
        outcomes = check.outcomes
        for pi in range(len(self.modes)):
            for ri in range(self.repetitions):
                path = sweep / f"point{pi:03d}_run{ri:03d}.csv"
                if not path.is_file():
                    outcomes.append(Outcome(path.name, False, "", 0))
                    continue
                iterations, ok = _converged_trace(path, self.m)
                outcomes.append(Outcome(path.name, ok, _sha256(path), iterations))

        averages = [sweep / f"point{p:03d}_avg.csv" for p in range(len(self.modes))]
        report = sweep / "report.json"
        svg = out / "n_diff.svg"
        missing = [p.name for p in (*averages, report, svg) if not p.is_file()]
        if codes != [0, 0]:
            check.notes.append(f"exit codes {codes}")
        if missing:
            check.notes.append(f"missing {missing}")
        else:
            points = json.loads(report.read_text())["points"]
            rates = [p["convergence_rate"] for p in points]
            if len(points) != len(self.modes) or any(r != 1.0 for r in rates):
                check.notes.append(f"convergence rates {rates}")
            if f"series={len(self.modes)}" not in svg.read_text():
                check.notes.append("plot lacks a series")
            check.shared_digest = hashlib.sha256(
                "".join(_sha256(p) for p in averages).encode()).hexdigest()
        check.shared_ok = not check.notes
        return check


class NetBuild:
    """`ngg net` for rg, ws and ba at M=1000 over a fixed list of seeds."""

    op = "network"
    workers = 1

    def __init__(self, seed: int, scale: dict, work: Path):
        self.seeds = [harness.derive_seed(seed, 2000 + k, 0)
                      for k in range(scale["net_seeds"])]

    def _jobs(self, out: Path):
        for k, s in enumerate(self.seeds):
            for model, knobs in NET_KNOBS.items():
                yield out / f"{model}_seed{k}", model, knobs, s

    def run_pass(self, out: Path):
        codes = []
        for where, model, knobs, s in self._jobs(out):
            argv = ["net", "--model", model, "--m", str(NET_M), "--seed", str(s),
                    "--out", str(where)]
            for name, value in knobs.items():
                argv += [f"--{name}", str(value)]
            codes.append(_quiet(cli.main, argv))
        return codes

    def check(self, codes, out: Path) -> PassCheck:
        outcomes = []
        for code, (where, model, _, _) in zip(codes, self._jobs(out), strict=True):
            edges, stats_path = where / "edges.txt", where / "stats.json"
            if code != 0 or not edges.is_file() or not stats_path.is_file():
                outcomes.append(Outcome(where.name, False, "", 1))
                continue
            stats = json.loads(stats_path.read_text())
            got = (stats["avg_degree"], stats["avg_path_length"],
                   stats["clustering_coefficient"])
            targets, tols = NET_REFERENCE[model]
            ok = all(abs(g - t) <= tol * t for g, t, tol in zip(got, targets, tols))
            n_edges = edges.read_bytes().count(b"\n")
            ok = ok and math.isclose(2 * n_edges / NET_M, stats["avg_degree"],
                                     rel_tol=1e-12)
            outcomes.append(Outcome(where.name, ok, _sha256(edges), 1))
        return PassCheck(outcomes)


WORKLOADS = {"group_canonical": GroupCanonical,
             "baseline_sweep": BaselineSweep,
             "net_build": NetBuild}
