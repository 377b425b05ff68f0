"""Experiment orchestration: JSON configs, seed derivation, artifact output.

An experiment is a network spec, game parameters, an optional sweep (the
cross product of modes x group sizes x betas), and a repetition count. Every
(sweep point, repetition) pair becomes one run with its own derived seed, so
results never depend on execution order and re-running a config reproduces
every artifact byte for byte (timestamps live only in the report metadata).

Artifacts inside the output directory:

  point<PPP>_run<RRR>.csv   per-run trace (see metrics module for the schema)
  point<PPP>_avg.csv        pointwise mean trace over the point's runs
  report.json               config echo, per-point aggregate rows, seeds,
                            and per-run wall time under metadata.runs

Every artifact is written to a temporary sibling first and then renamed
over its destination, so a failed write leaves no partial file.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .engine import MODES, GameParams, run_to_convergence
from .errors import InvalidParamError, ParseError, ValidationError
from .metrics import (AggregateStats, aggregate_summaries, average_runs,
                      write_atomic, write_trace_csv)
from .netgen import NetworkSpec, generate

# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
# splitmix64 finalizer constants (Stafford mix13) plus two odd 64-bit
# increments (golden ratio, and the xxhash64 prime) to separate the inputs.
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INC_POINT = 0x9E3779B97F4A7C15
_INC_RUN = 0xC2B2AE3D27D4EB4F


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, point_index: int, run_index: int) -> int:
    """Collision-resistant 64-bit run seed, pure in its three inputs.

    The indices are linearly combined with two independent odd constants and
    the result is passed twice through the splitmix64 finalizer, so seeds for
    neighbouring (point, run) pairs share no structure. Bit-exact across
    platforms: everything is integer arithmetic mod 2**64.
    """
    z = (master_seed + _INC_POINT * (point_index + 1)
         + _INC_RUN * (run_index + 1)) & _MASK64
    return _mix64(_mix64(z))


def _run_streams(run_seed: int) -> tuple:
    """Child seed sequences for (network build, game play) of one run."""
    return tuple(np.random.SeedSequence(run_seed).spawn(2))


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    betas: Optional[tuple] = None
    group_sizes: Optional[tuple] = None
    modes: Optional[tuple] = None


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec
    game: GameParams
    repetitions: int
    master_seed: int
    output_dir: str = "ngg_out"
    sweep: Optional[SweepSpec] = None
    fixed_network: bool = False
    parallelism: int = 1

    def sweep_points(self) -> list:
        """GameParams per point: modes x group_sizes x betas, config order."""
        if self.sweep is None:
            return [self.game]
        modes = self.sweep.modes or (self.game.mode,)
        sizes = self.sweep.group_sizes or (self.game.n,)
        betas = self.sweep.betas or (self.game.beta,)
        return [
            GameParams(n=n, beta=b, mode=mode,
                       max_iterations=self.game.max_iterations,
                       vocabulary=self.game.vocabulary,
                       group_size_basis=self.game.group_size_basis)
            for mode, n, b in product(modes, sizes, betas)
        ]

    def to_dict(self) -> dict:
        """Canonical echo with all defaults materialised (for the report)."""
        d = {
            "network": {"model": self.network.model, "m": self.network.m,
                        **self.network.params()},
            "game": {"n": self.game.n, "beta": self.game.beta,
                     "mode": self.game.mode,
                     "max_iterations": self.game.max_iterations,
                     "vocabulary": self.game.vocabulary,
                     "group_size_basis": self.game.group_size_basis},
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "output_dir": self.output_dir,
            "fixed_network": self.fixed_network,
            "parallelism": self.parallelism,
        }
        if self.sweep is not None:
            sw = {}
            if self.sweep.betas is not None:
                sw["betas"] = list(self.sweep.betas)
            if self.sweep.group_sizes is not None:
                sw["group_sizes"] = list(self.sweep.group_sizes)
            if self.sweep.modes is not None:
                sw["modes"] = list(self.sweep.modes)
            d["sweep"] = sw
        return d


def _only_keys(obj: dict, where: str, required: tuple, optional: tuple = ()):
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError(f"{where}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where}.{key}", "missing required key")


def _as_int(value, where: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(where, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, where: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValidationError(where, f"expected a finite number, got {value!r}")
    return float(value)


def _as_type(value, kind: type, where: str, what: str):
    if not isinstance(value, kind):
        raise ValidationError(where, f"expected {what}, got {value!r}")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a decoded JSON object; unknown keys anywhere are rejected."""
    if not isinstance(raw, dict):
        raise ValidationError("<root>", "top level must be a JSON object")
    _only_keys(raw, "<root>", ("network", "game", "repetitions", "master_seed"),
               ("output_dir", "sweep", "fixed_network", "parallelism"))

    net_raw = raw["network"]
    if not isinstance(net_raw, dict):
        raise ValidationError("network", "must be an object")
    model = net_raw.get("model")
    if model not in ("rg", "ws", "ba"):
        raise ValidationError("network.model", f"must be rg, ws or ba, got {model!r}")
    per_model = {"rg": ("p",), "ws": ("k", "rp"), "ba": ("n0", "e")}[model]
    _only_keys(net_raw, "network", ("model", "m") + per_model)
    kwargs = {}
    for name in per_model:
        kwargs[name] = (_as_number(net_raw[name], f"network.{name}")
                        if name in ("p", "rp")
                        else _as_int(net_raw[name], f"network.{name}"))
    spec = NetworkSpec(model=model, m=_as_int(net_raw["m"], "network.m"), **kwargs)
    try:
        spec.validate()
    except InvalidParamError as exc:
        raise ValidationError("network", str(exc)) from exc

    game_raw = raw["game"]
    if not isinstance(game_raw, dict):
        raise ValidationError("game", "must be an object")
    _only_keys(game_raw, "game", ("n", "beta"),
               ("mode", "max_iterations", "vocabulary", "group_size_basis"))
    vocab = game_raw.get("vocabulary")
    game = GameParams(
        n=_as_int(game_raw["n"], "game.n"),
        beta=_as_number(game_raw["beta"], "game.beta"),
        mode=game_raw.get("mode", "ngg"),
        max_iterations=_as_int(game_raw.get("max_iterations", 1_000_000),
                               "game.max_iterations"),
        vocabulary=None if vocab is None else _as_int(vocab, "game.vocabulary"),
        group_size_basis=game_raw.get("group_size_basis", "nominal"),
    )
    try:
        game.validate()
    except InvalidParamError as exc:
        raise ValidationError("game", str(exc)) from exc
    if game.n > spec.m:
        raise ValidationError("game.n", f"exceeds network size m={spec.m}")

    sweep = None
    if "sweep" in raw:
        sw_raw = raw["sweep"]
        if not isinstance(sw_raw, dict):
            raise ValidationError("sweep", "must be an object")
        _only_keys(sw_raw, "sweep", (), ("betas", "group_sizes", "modes"))
        if not sw_raw:
            raise ValidationError("sweep", "must list at least one dimension")
        fields = {}
        for name, checker in (("betas", _as_number), ("group_sizes", _as_int),
                              ("modes", None)):
            if name not in sw_raw:
                fields[name] = None
                continue
            values = sw_raw[name]
            if not isinstance(values, list) or not values:
                raise ValidationError(f"sweep.{name}", "must be a non-empty list")
            if checker is None:
                for v in values:
                    if v not in MODES:
                        raise ValidationError("sweep.modes", f"unknown mode {v!r}")
                fields[name] = tuple(values)
            else:
                fields[name] = tuple(checker(v, f"sweep.{name}") for v in values)
        sweep = SweepSpec(**fields)

    cfg = ExperimentConfig(
        network=spec,
        game=game,
        repetitions=_as_int(raw["repetitions"], "repetitions", minimum=1),
        master_seed=_as_int(raw["master_seed"], "master_seed", minimum=0),
        output_dir=_as_type(raw.get("output_dir", "ngg_out"), str, "output_dir",
                            "a string"),
        sweep=sweep,
        fixed_network=_as_type(raw.get("fixed_network", False), bool,
                               "fixed_network", "true or false"),
        parallelism=_as_int(raw.get("parallelism", 1), "parallelism", minimum=1),
    )
    # every sweep point must survive the same validation as the base game
    for params in cfg.sweep_points():
        try:
            params.validate()
        except InvalidParamError as exc:
            raise ValidationError("sweep", str(exc)) from exc
        if params.n > spec.m:
            raise ValidationError("sweep.group_sizes",
                                  f"{params.n} exceeds network size m={spec.m}")
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parse_config(raw)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _net_seed_for(cfg: ExperimentConfig, point_index: int, run_index: int):
    # fixed_network pins every run of a point to the run-0 network stream
    run = 0 if cfg.fixed_network else run_index
    return _run_streams(derive_seed(cfg.master_seed, point_index, run))[0]


def _job(args):
    """One run: build its network, play to convergence, time both."""
    cfg, point_index, run_index, params = args
    start = time.perf_counter()
    seed = derive_seed(cfg.master_seed, point_index, run_index)
    net = generate(cfg.network, np.random.default_rng(
        _net_seed_for(cfg, point_index, run_index)))
    trace, summary = run_to_convergence(net, params, _run_streams(seed)[1])
    wall_s = time.perf_counter() - start
    return trace, summary, seed, wall_s


def _worker_count(cfg: ExperimentConfig) -> int:
    env = os.environ.get("NGG_PARALLELISM")
    value = cfg.parallelism
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValidationError("NGG_PARALLELISM", f"not an integer: {env!r}")
        if value < 1:
            raise ValidationError("NGG_PARALLELISM", f"must be >= 1, got {value}")
    cpus = os.cpu_count() or 1
    if value > cpus:
        print(f"note: using {cpus} of {value} workers, one per CPU", file=sys.stderr)
    return min(value, cpus)


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Execute every (point, repetition) run and write all artifacts.

    Returns the report dict that report.json holds. Capped runs are flagged
    in their report row, never raised; callers decide what non-convergence
    means. Timing (each run's network build plus game, in seconds) goes only
    into the report's metadata, so every other artifact is reproducible byte
    for byte.
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = cfg.sweep_points()
    jobs = [(cfg, pi, ri, params)
            for pi, params in enumerate(points)
            for ri in range(cfg.repetitions)]

    workers = min(_worker_count(cfg), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_job, jobs, chunksize=1))
    else:
        results = [_job(j) for j in jobs]
    results = iter(results)  # in job order: point by point, run by run
    point_rows = []
    runs_meta = []
    for pi, params in enumerate(points):
        traces, summaries = [], []
        runs_detail = []
        for ri in range(cfg.repetitions):
            trace, summary, seed, wall_s = next(results)
            runs_meta.append({"point": pi, "run": ri,
                              "iterations": summary.iterations,
                              "wall_s": wall_s})
            name = f"point{pi:03d}_run{ri:03d}.csv"
            write_trace_csv(trace, out / name)
            traces.append(trace)
            summaries.append(summary)
            runs_detail.append({
                "run": ri,
                "seed": seed,
                "trace": name,
                "converged": summary.converged,
                "n_iter_cvg": summary.n_iter_cvg,
                "n_total_max": summary.n_total_max,
                "n_diff_max": summary.n_diff_max,
            })
        avg_name = f"point{pi:03d}_avg.csv"
        write_trace_csv(average_runs(traces, cfg.network.m), out / avg_name)
        agg = aggregate_summaries(summaries)
        point_rows.append(_point_row(pi, params, agg, avg_name, runs_detail))

    report = {
        "tool": "ngg",
        "version": __version__,
        "master_seed": cfg.master_seed,
        "config": cfg.to_dict(),
        "points": point_rows,
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "runs": runs_meta,
        },
    }
    write_atomic(out / "report.json",
                 json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _point_row(pi: int, params: GameParams, agg: AggregateStats,
               avg_name: str, runs_detail: list) -> dict:
    return {
        "point": pi,
        "mode": params.mode,
        "n": params.n,
        "beta": params.beta,
        "runs": agg.n_runs,
        "converged_runs": agg.converged_runs,
        "convergence_rate": agg.convergence_rate,
        "n_total_max": {"mean": agg.n_total_max_mean, "std": agg.n_total_max_std},
        "n_diff_max": {"mean": agg.n_diff_max_mean, "std": agg.n_diff_max_std},
        "n_iter_cvg": {"mean": agg.n_iter_cvg_mean, "std": agg.n_iter_cvg_std},
        "unconverged_runs": [d["run"] for d in runs_detail if not d["converged"]],
        "avg_trace": avg_name,
        "runs_detail": runs_detail,
    }
