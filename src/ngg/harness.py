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
from contextlib import contextmanager, nullcontext
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
from .netgen import NetworkSpec, _check_types, _field_types, generate

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


# sweep key -> the GameParams field whose values it lists, in point order
_SWEPT = {"modes": "mode", "group_sizes": "n", "betas": "beta"}


def _bad(field: str, reason: str) -> InvalidParamError:
    return InvalidParamError(f"{field}: {reason}", field)


@contextmanager
def _named(prefix: str, field: Optional[str] = None):
    """Re-raise the block's InvalidParamError naming the config path
    prefix + field, field being by default the one the error names."""
    try:
        yield
    except InvalidParamError as exc:
        raise _bad(prefix + (field or exc.field), str(exc)) from exc


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

    def validate(self) -> None:
        """InvalidParamError naming in .field the config path of the first
        field out of type or range (`repetitions`, `network.p`, `game.beta`,
        and for a swept value its list, `sweep.betas`). Each swept value is
        checked in the base game's place, against the network's size."""
        with _named(""):
            _check_types(self)
            for name, minimum in (("repetitions", 1), ("master_seed", 0),
                                  ("parallelism", 1)):
                if getattr(self, name) < minimum:
                    raise InvalidParamError(
                        f"must be >= {minimum}, got {getattr(self, name)}", name)
        with _named("network."):
            self.network.validate()
        with _named("game."):
            self.game.validate(self.network.m)
        if self.sweep is None:
            return
        if self.sweep == SweepSpec():
            raise _bad("sweep", "must list at least one dimension")
        for key, name in _SWEPT.items():
            values = getattr(self.sweep, key)
            if values is not None and not (isinstance(values, (tuple, list))
                                           and values):
                raise _bad(f"sweep.{key}", "must be a non-empty list")
            with _named("sweep.", key):
                for value in values or ():
                    replace(self.game, **{name: value}).validate(self.network.m)

    def sweep_points(self) -> list:
        """GameParams per point: the product of the swept lists in _SWEPT's
        order (modes x group_sizes x betas), each unswept field the base's."""
        if self.sweep is None:
            return [self.game]
        axes = [getattr(self.sweep, key) or (getattr(self.game, name),)
                for key, name in _SWEPT.items()]
        return [replace(self.game, **dict(zip(_SWEPT.values(), point)))
                for point in product(*axes)]

    def to_dict(self) -> dict:
        """Canonical echo with all defaults materialised (for the report), of
        a config that validate() passes: else its InvalidParamError."""
        self.validate()
        d = asdict(self)
        d["network"] = {"model": self.network.model, "m": self.network.m,
                        **self.network.params()}
        sweep = d.pop("sweep")
        if sweep is not None:
            d["sweep"] = {k: list(v) for k, v in sweep.items() if v is not None}
        return d


def _fields_of(cls, obj, where: str) -> dict:
    """obj, a JSON object whose keys are fields of cls, with every field
    that has no default."""
    if not isinstance(obj, dict):
        raise _bad(where, "must be an object")
    names = [f.name for f in fields(cls)]
    for key in obj:
        if key not in names:
            raise _bad(f"{where}.{key}", "unknown key")
    for f in fields(cls):
        if f.default is MISSING and f.name not in obj:
            raise _bad(f"{where}.{f.name}", "missing required key")
    return obj


def _floats(obj):
    """obj with each float field set a float, as a JSON echo writes a real."""
    return replace(obj, **{name: float(getattr(obj, name))
                           for name, (kind, _) in _field_types(type(obj)).items()
                           if kind is float and getattr(obj, name) is not None})


def parse_config(raw: dict) -> ExperimentConfig:
    """Build the config a decoded JSON object describes and validate() it;
    unknown keys anywhere are rejected. Every rejection is an
    InvalidParamError whose .field is the config path."""
    _fields_of(ExperimentConfig, raw, "<root>")
    sweep = None
    if "sweep" in raw:  # lists become tuples; validate() rejects any other value
        sweep = SweepSpec(**{key: tuple(v) if isinstance(v, list) else v for key, v
                             in _fields_of(SweepSpec, raw["sweep"], "sweep").items()})
    # top-level fields are named bare: "repetitions", not "<root>.repetitions"
    cfg = ExperimentConfig(
        network=NetworkSpec(**_fields_of(NetworkSpec, raw["network"], "network")),
        game=GameParams(**_fields_of(GameParams, raw["game"], "game")),
        sweep=sweep, **{key: value for key, value in raw.items()
                        if key not in ("network", "game", "sweep")})
    cfg.validate()
    if sweep is not None and sweep.betas:
        sweep = replace(sweep, betas=tuple(float(b) for b in sweep.betas))
    return replace(cfg, network=_floats(cfg.network), game=_floats(cfg.game),
                   sweep=sweep)


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment config file (UTF-8 JSON)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidParamError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
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
                                  "game_s": end - built,
                                  "iters_per_s": summary.iterations / (end - built)}


def _worker_count(cfg: ExperimentConfig) -> int:
    cpus = os.cpu_count() or 1
    if cfg.parallelism > cpus:
        print(f"note: using {cpus} of {cfg.parallelism} workers, one per CPU",
              file=sys.stderr)
    return min(cfg.parallelism, cpus)


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Execute every (point, repetition) run and write all artifacts.

    cfg.validate() runs first, so an invalid config writes nothing. Each
    run's CSV is written as its result arrives, in job order, and report.json
    last. Returns the report dict that report.json holds. Capped runs are
    flagged in their report row, never raised; callers decide what
    non-convergence means. Timing (each run's network build plus game, in
    seconds) goes only into the report's metadata, so every other artifact is
    reproducible byte for byte.
    """
    cfg.validate()
    out = make_out_dir(out_dir if out_dir is not None else cfg.output_dir)
    points = cfg.sweep_points()
    jobs = [(cfg, pi, ri, params)
            for pi, params in enumerate(points)
            for ri in range(cfg.repetitions)]

    workers = min(_worker_count(cfg), len(jobs))
    point_rows = []
    runs_meta = []
    pool = None
    if workers > 1:  # so a sequential sweep never loads the process pool
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
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
