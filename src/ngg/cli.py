"""Command line front end.

Subcommands:
  net    generate one network, write its edge list and a stats JSON record
  run    execute an experiment config (its base point; no sweep expansion)
  sweep  execute an experiment config that declares a sweep block
  plot   turn persisted trace CSVs into a standalone SVG line chart

Exit codes: 0 success, 2 invalid parameters/config/plot schema/--out path,
3 connectivity failure during generation, 4 experiment finished but at
least one run hit the iteration cap unconverged (artifacts still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConnectivityFailureError, InvalidParamError, NggError
from .harness import load_config, run_experiment
from .metrics import make_out_dir, read_trace_columns, write_atomic
from .netgen import KNOBS, NetworkSpec, compute_stats, generate, write_edge_list
from .plotting import render_line_chart

TRACE_KINDS = {"n-total": "n_total", "n-diff": "n_diff", "sr": "sr"}
METRICS = ("n_total_max", "n_diff_max", "n_iter_cvg")


def _seed(text: str) -> int:
    """argparse type of every --seed: an integer >= 0, as numpy's generators
    and a config's master_seed require."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngg", description="naming game in groups on complex networks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_net = sub.add_parser("net", help="generate a network")
    p_net.add_argument("--model", required=True, choices=tuple(KNOBS))
    p_net.add_argument("--m", required=True, type=int, help="number of nodes")
    p_net.add_argument("--p", type=float, help="rg edge probability")
    p_net.add_argument("--k", type=int, help="ws neighbours per side")
    p_net.add_argument("--rp", type=float, help="ws rewiring probability")
    p_net.add_argument("--n0", type=int, help="ba seed size")
    p_net.add_argument("--e", type=int, help="ba edges per new node")
    p_net.add_argument("--seed", type=_seed, default=0)
    p_net.add_argument("--out", default=".", help="output directory")

    for name, help_ in (("run", "execute a config's base point"),
                        ("sweep", "execute a config's sweep")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the config's master_seed")
        p.add_argument("--out", default=None,
                       help="override the config's output_dir")

    p_plot = sub.add_parser("plot", help="render trace CSVs to SVG")
    p_plot.add_argument("--kind", required=True,
                        choices=tuple(TRACE_KINDS) + ("metric-vs-beta",))
    p_plot.add_argument("--inputs", required=True, nargs="+",
                        help="trace CSV paths")
    p_plot.add_argument("--labels", nargs="+", default=None)
    p_plot.add_argument("--metric", choices=METRICS, default=None,
                        help="metric-vs-beta: which run metric to extract")
    p_plot.add_argument("--x", nargs="+", type=float, default=None,
                        help="metric-vs-beta: abscissa per input CSV")
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--xlabel", default=None)
    p_plot.add_argument("--out", required=True, help="output SVG path")
    return parser


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_net(args) -> int:
    spec = NetworkSpec(model=args.model, m=args.m, p=args.p, k=args.k,
                       rp=args.rp, n0=args.n0, e=args.e)
    net = generate(spec, np.random.default_rng(args.seed))
    stats = compute_stats(net)
    out = make_out_dir(args.out)
    write_edge_list(net, out / "edges.txt")
    record = {"model": spec.model, "params": spec.params(), "m": spec.m,
              "seed": args.seed, **dataclasses.asdict(stats)}
    write_atomic(out / "stats.json",
                 json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"{spec.label()} m={spec.m} avg_degree={stats.avg_degree:.6g} "
          f"avg_path_length={stats.avg_path_length:.6g} "
          f"clustering={stats.clustering_coefficient:.6g} seed={args.seed}")
    return 0


def _cmd_experiment(args, expect_sweep: bool) -> int:
    cfg = load_config(args.config)
    if expect_sweep and cfg.sweep is None:
        raise InvalidParamError("sweep: config has no sweep block; use `ngg run`",
                                "sweep")
    if not expect_sweep and cfg.sweep is not None:
        raise InvalidParamError("sweep: config declares a sweep; use `ngg sweep`",
                                "sweep")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    report = run_experiment(cfg, out_dir=args.out)
    worst = 0
    for row in report["points"]:
        cvg = row["n_iter_cvg"]
        iter_s = (f"{cvg['mean']:.6g}±{cvg['std']:.6g}"
                  if cvg["mean"] is not None else "n/a")
        print(f"N={row['n']} beta={row['beta']:g} mode={row['mode']} "
              f"iter_cvg={iter_s} "
              f"total_max={row['n_total_max']['mean']:.6g} "
              f"diff_max={row['n_diff_max']['mean']:.6g}")
        if row["unconverged_runs"]:
            worst = 4
            print(f"  warning: runs {row['unconverged_runs']} hit the "
                  f"iteration cap unconverged", file=sys.stderr)
    return worst


def _cmd_plot(args) -> int:
    if not os.path.isdir(Path(args.out).parent):  # False for a name too long
        raise InvalidParamError(f"cannot write {args.out}: no such directory")
    if args.kind == "metric-vs-beta":
        if args.metric is None or args.x is None:
            raise InvalidParamError(
                "metric-vs-beta needs --metric and --x")
        if args.labels is not None and len(args.labels) > 1:
            raise InvalidParamError("--labels takes one value with --kind "
                                    f"metric-vs-beta, got {len(args.labels)}")
        if len(args.x) != len(args.inputs):
            raise InvalidParamError("--x count must match --inputs")
        if not np.isfinite(args.x).all():
            raise InvalidParamError(f"--x values must be finite, got {args.x}")
        try:
            values = [_extract_metric(path, args.metric) for path in args.inputs]
        except InvalidParamError:
            raise
        except (ValueError, KeyError, TypeError) as exc:  # not UTF-8 JSON, off schema
            raise InvalidParamError(f"unreadable report.json beside the inputs: {exc!r}")
        order = np.argsort(args.x, kind="stable")
        xs = [args.x[i] for i in order]
        ys = [values[i] for i in order]
        log_y = args.metric == "n_iter_cvg"
        series = [(args.labels[0] if args.labels else args.metric, xs, ys)]
        xlabel = args.xlabel if args.xlabel is not None else "beta"
        ylabel = args.metric
    else:
        for flag, value in (("--metric", args.metric), ("--x", args.x)):
            if value is not None:
                raise InvalidParamError(f"{flag} needs --kind metric-vs-beta")
        if args.labels is not None and len(args.labels) != len(args.inputs):
            raise InvalidParamError("--labels count must match --inputs")
        labels = args.labels or [Path(p).stem for p in args.inputs]
        col = TRACE_KINDS[args.kind]
        log_y = False
        series = []
        for label, path in zip(labels, args.inputs):
            try:
                columns = read_trace_columns(path)
            except (ValueError, OSError) as exc:
                raise InvalidParamError(str(exc))
            series.append((label, columns["iteration"], columns[col]))
        xlabel = args.xlabel if args.xlabel is not None else "iteration"
        ylabel = col

    try:
        svg = render_line_chart(
            series, title=args.title, xlabel=xlabel, ylabel=ylabel, log_y=log_y,
            desc=f"kind={args.kind};yscale={'log' if log_y else 'linear'};"
                 f"series={len(series)}")
    except InvalidParamError as exc:
        raise InvalidParamError(f"{' '.join(args.inputs)}: {exc}") from None
    write_atomic(args.out, svg)
    print(f"wrote {args.out} ({len(series)} series)")
    return 0


def _extract_metric(path: str, metric: str) -> float:
    """The report.json row's value for an averaged or a single-run trace
    beside it; a trace that no report there names, or a null value (nothing
    converged), is an error naming the file."""
    report = Path(path).parent / "report.json"
    name = Path(path).name
    rows = (json.loads(report.read_text(encoding="utf-8"))["points"]
            if report.is_file() else [])
    for row in rows:
        if row["avg_trace"] == name:
            if row[metric]["mean"] is None:
                raise InvalidParamError(f"{path}: no converged run to average")
            return row[metric]["mean"]
        for run in row["runs_detail"]:
            if run["trace"] == name:
                if run[metric] is None:
                    raise InvalidParamError(f"{path}: the run never converged")
                return float(run[metric])
    raise InvalidParamError(f"{path}: no report.json beside it names this trace")


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "net":
            return _cmd_net(args)
        if args.command == "run":
            return _cmd_experiment(args, expect_sweep=False)
        if args.command == "sweep":
            return _cmd_experiment(args, expect_sweep=True)
        return _cmd_plot(args)
    except ConnectivityFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
