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
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, fields, replace
from datetime import datetime, timezone
from itertools import product
from typing import Optional

import numpy as np

from . import __version__
from .engine import MODES, GameParams, run_to_convergence
from .errors import InvalidParamError, ValidationError
from .metrics import (aggregate_summaries, average_runs, make_out_dir,
                      write_atomic, write_trace_csv)
from .netgen import KNOBS, NetworkSpec, generate

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
        return [replace(self.game, mode=mode, n=n, beta=b)
                for mode, n, b in product(modes, sizes, betas)]

    def to_dict(self) -> dict:
        """Canonical echo with all defaults materialised (for the report)."""
        d = asdict(self)
        d["network"] = {"model": self.network.model, "m": self.network.m,
                        **self.network.params()}
        sweep = d.pop("sweep")
        if sweep is not None:
            d["sweep"] = {k: list(v) for k, v in sweep.items() if v is not None}
        return d


def _only_keys(obj: dict, where: str, required, allowed) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{where}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where}.{key}", "missing required key")


def _build(cls, obj, where: str, checkers: dict):
    """cls from a JSON object whose keys are fields of cls, each value
    through its checker; a key left out takes its dataclass default."""
    if not isinstance(obj, dict):
        raise ValidationError(where, "must be an object")
    _only_keys(obj, where,
               [f.name for f in fields(cls) if f.default is MISSING],
               [f.name for f in fields(cls)])
    # top-level values are named bare: "repetitions", not "<root>.repetitions"
    prefix = "" if where == "<root>" else f"{where}."
    return cls(**{key: checkers[key](value, prefix + key)
                  for key, value in obj.items()})


def _validated(obj, where: str):
    """obj once its validate() passes; an InvalidParamError is reported as
    a ValidationError of the config field `where`."""
    try:
        obj.validate()
    except InvalidParamError as exc:
        raise ValidationError(where, str(exc)) from exc
    return obj


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


def _as_type(kind: type, what: str):
    def check(value, where: str):
        if not isinstance(value, kind):
            raise ValidationError(where, f"expected {what}, got {value!r}")
        return value
    return check


def _as_mode(value, where: str) -> str:
    if value not in MODES:  # a tuple, so an unhashable value compares unequal
        raise ValidationError(where, f"unknown mode {value!r}")
    return value


def _as_list_of(check):
    def as_list(values, where: str) -> tuple:
        if not isinstance(values, list) or not values:
            raise ValidationError(where, "must be a non-empty list")
        return tuple(check(v, where) for v in values)
    return as_list


def _as_network(obj, where: str) -> NetworkSpec:
    if not isinstance(obj, dict):
        raise ValidationError(where, "must be an object")
    model = obj.get("model")
    if model not in tuple(KNOBS):  # not the dict: model may be unhashable
        raise ValidationError(f"{where}.model",
                              f"must be one of {tuple(KNOBS)}, got {model!r}")
    keys = ("model", "m") + KNOBS[model]
    _only_keys(obj, where, keys, keys)
    knobs = {name: (_as_number if name in ("p", "rp") else _as_int)(
                 obj[name], f"{where}.{name}")
             for name in KNOBS[model]}
    m = _as_int(obj["m"], f"{where}.m")
    return _validated(NetworkSpec(model=model, m=m, **knobs), where)


def _as_game(obj, where: str) -> GameParams:
    return _validated(_build(GameParams, obj, where, _GAME_CHECKS), where)


def _as_sweep(obj, where: str) -> SweepSpec:
    sweep = _build(SweepSpec, obj, where, _SWEEP_CHECKS)
    if sweep == SweepSpec():
        raise ValidationError(where, "must list at least one dimension")
    return sweep


_GAME_CHECKS = {
    "n": _as_int,
    "beta": _as_number,
    "mode": _as_type(str, "a string"),
    "max_iterations": _as_int,
    "vocabulary": lambda v, where: None if v is None else _as_int(v, where),
    "group_size_basis": _as_type(str, "a string"),
}
_SWEEP_CHECKS = {
    "betas": _as_list_of(_as_number),
    "group_sizes": _as_list_of(_as_int),
    "modes": _as_list_of(_as_mode),
}
_CONFIG_CHECKS = {
    "network": _as_network,
    "game": _as_game,
    "repetitions": lambda v, where: _as_int(v, where, minimum=1),
    "master_seed": lambda v, where: _as_int(v, where, minimum=0),
    "output_dir": _as_type(str, "a string"),
    "sweep": _as_sweep,
    "fixed_network": _as_type(bool, "true or false"),
    "parallelism": lambda v, where: _as_int(v, where, minimum=1),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a decoded JSON object; unknown keys anywhere are rejected."""
    cfg = _build(ExperimentConfig, raw, "<root>", _CONFIG_CHECKS)
    m = cfg.network.m
    if cfg.game.n > m:
        raise ValidationError("game.n", f"exceeds network size m={m}")
    # every sweep point must survive the same validation as the base game
    for params in cfg.sweep_points():
        _validated(params, "sweep")
        if params.n > m:
            raise ValidationError("sweep.group_sizes",
                                  f"{params.n} exceeds network size m={m}")
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidParamError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParamError(f"{path}: {exc}") from exc
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
    built = time.perf_counter()
    trace, summary = run_to_convergence(net, params, _run_streams(seed)[1])
    end = time.perf_counter()
    return trace, summary, seed, {"wall_s": end - start, "net_s": built - start,
                                  "game_s": end - built}


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

    Each run's CSV is written as its result arrives, in job order, and
    report.json last. Returns the report dict that report.json holds. Capped
    runs are flagged in their report row, never raised; callers decide what
    non-convergence means. Timing (each run's network build plus game, in
    seconds) goes only into the report's metadata, so every other artifact is
    reproducible byte for byte.
    """
    out = make_out_dir(out_dir if out_dir is not None else cfg.output_dir)
    points = cfg.sweep_points()
    jobs = [(cfg, pi, ri, params)
            for pi, params in enumerate(points)
            for ri in range(cfg.repetitions)]

    workers = min(_worker_count(cfg), len(jobs))
    point_rows = []
    runs_meta = []
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():  # results stream in job order as runs finish
        results = pool.map(_job, jobs, chunksize=1) if pool else map(_job, jobs)
        for pi, params in enumerate(points):
            traces, summaries = [], []
            runs_detail = []
            for ri in range(cfg.repetitions):
                trace, summary, seed, timing = next(results)
                runs_meta.append({"point": pi, "run": ri,
                                  "iterations": summary.iterations, **timing})
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
            point_rows.append({
                "point": pi,
                "mode": params.mode,
                "n": params.n,
                "beta": params.beta,
                **aggregate_summaries(summaries),
                "unconverged_runs": [d["run"] for d in runs_detail
                                     if not d["converged"]],
                "avg_trace": avg_name,
                "runs_detail": runs_detail,
            })

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
