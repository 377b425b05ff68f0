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
from .engine import GameParams, run_to_convergence
from .errors import InvalidParamError
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


def _bad(field: str, reason: str) -> InvalidParamError:
    return InvalidParamError(f"{field}: {reason}", field)


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise _bad(where, "must be an object")
    return obj


def _only_keys(obj: dict, where: str, required, allowed) -> None:
    for key in obj:
        if key not in allowed:
            raise _bad(f"{where}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise _bad(f"{where}.{key}", "missing required key")


def _fields_of(cls, obj, where: str) -> dict:
    """obj, a JSON object whose keys are fields of cls, with every field
    that has no default."""
    _only_keys(_object(obj, where), where,
               [f.name for f in fields(cls) if f.default is MISSING],
               [f.name for f in fields(cls)])
    return obj


def _validated(obj, where: str, key: Optional[str] = None):
    """obj once its validate() passes, each of its REALS a float as a JSON
    number echoes; a failure names the config field where.<key>, key being
    by default the field that validate() names."""
    try:
        obj.validate()
    except InvalidParamError as exc:
        raise _bad(f"{where}.{key or exc.field}", str(exc)) from exc
    return replace(obj, **{name: float(getattr(obj, name)) for name in obj.REALS
                           if getattr(obj, name) is not None})


def _as_int(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(where, f"expected an integer, got {value!r}")
    if value < minimum:
        raise _bad(where, f"must be >= {minimum}, got {value}")
    return value


def _as_type(kind: type, what: str):
    def check(value, where: str):
        if not isinstance(value, kind):
            raise _bad(where, f"expected {what}, got {value!r}")
        return value
    return check


def _as_network(obj, where: str) -> NetworkSpec:
    model = _object(obj, where).get("model")
    if model not in tuple(KNOBS):  # raises: validate() checks the model first
        _validated(NetworkSpec(model, m=2), where)
    keys = ("model", "m") + KNOBS[model]
    _only_keys(obj, where, keys, keys)
    return _validated(NetworkSpec(**obj), where)


# sweep key -> the GameParams field whose values it lists
_SWEPT = {"betas": "beta", "group_sizes": "n", "modes": "mode"}


def _as_sweep(obj, where: str, game: GameParams) -> SweepSpec:
    """Each listed value validated in the base game's place."""
    if not _fields_of(SweepSpec, obj, where):
        raise _bad(where, "must list at least one dimension")
    dims = {}
    for key, values in obj.items():
        if not isinstance(values, list) or not values:
            raise _bad(f"{where}.{key}", "must be a non-empty list")
        name = _SWEPT[key]
        dims[key] = tuple(
            getattr(_validated(replace(game, **{name: v}), where, key), name)
            for v in values)
    return SweepSpec(**dims)


# the config's own fields; game, network and sweep values are checked by
# GameParams.validate() and NetworkSpec.validate()
_CONFIG_CHECKS = {
    "repetitions": lambda v, where: _as_int(v, where, minimum=1),
    "master_seed": lambda v, where: _as_int(v, where, minimum=0),
    "output_dir": _as_type(str, "a string"),
    "fixed_network": _as_type(bool, "true or false"),
    "parallelism": lambda v, where: _as_int(v, where, minimum=1),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a decoded JSON object; unknown keys anywhere are rejected.
    Every rejection is an InvalidParamError whose .field is the config path."""
    _fields_of(ExperimentConfig, raw, "<root>")
    network = _as_network(raw["network"], "network")
    game = _validated(GameParams(**_fields_of(GameParams, raw["game"], "game")),
                      "game")
    m = network.m
    if game.n > m:
        raise _bad("game.n", f"exceeds network size m={m}")
    sweep = _as_sweep(raw["sweep"], "sweep", game) if "sweep" in raw else None
    for n in sweep and sweep.group_sizes or ():
        if n > m:
            raise _bad("sweep.group_sizes", f"{n} exceeds network size m={m}")
    # top-level fields are named bare: "repetitions", not "<root>.repetitions"
    return ExperimentConfig(
        network=network, game=game, sweep=sweep,
        **{key: check(raw[key], key) for key, check in _CONFIG_CHECKS.items()
           if key in raw})


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
    cpus = os.cpu_count() or 1
    if cfg.parallelism > cpus:
        print(f"note: using {cpus} of {cfg.parallelism} workers, one per CPU",
              file=sys.stderr)
    return min(cfg.parallelism, cpus)


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
