"""Command-line interface: artifacts, exit codes, SVG output."""

import builtins
import json
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from conftest import HalfFile, child_env, prepend, run_capped
from ngg.cli import main
from ngg.harness import parse_config

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# one path component longer than a file system's 255-byte name limit
LONG = "x" * 300


def write_config(tmp_path, **over):
    raw = {
        "network": {"model": "rg", "m": 12, "p": 0.4},
        "game": {"n": 3, "beta": 0.5},
        "repetitions": 2,
        "master_seed": 1,
    }
    raw.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def svg_elements(path, local):
    root = ET.parse(path).getroot()
    return [el for el in root.iter() if el.tag.split("}")[-1] == local]


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------


def test_net_writes_edges_and_stats(tmp_path, capsys):
    code = main(["net", "--model", "rg", "--m", "2", "--p", "1.0",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "edges.txt").read_text() == "0 1\n"
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats == {
        "model": "rg", "params": {"p": 1.0}, "m": 2, "seed": 3,
        "avg_degree": 1.0, "avg_path_length": 1.0,
        "clustering_coefficient": 0.0,
    }
    out = capsys.readouterr().out
    assert out.startswith("RG-1 m=2 avg_degree=1 ")


def test_net_lattice_exact_degree(tmp_path, capsys):
    code = main(["net", "--model", "ws", "--m", "10", "--k", "2",
                 "--rp", "0.0", "--out", str(tmp_path)])
    assert code == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["avg_degree"] == 4.0
    assert len((tmp_path / "edges.txt").read_text().splitlines()) == 20


def test_net_connectivity_failure_exits_3(tmp_path, capsys):
    code = main(["net", "--model", "rg", "--m", "50", "--p", "0.001",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_net_invalid_params_exit_2(tmp_path, capsys):
    code = main(["net", "--model", "rg", "--m", "10", "--out", str(tmp_path)])
    assert code == 2
    code = main(["net", "--model", "ws", "--m", "10", "--k", "5",
                 "--rp", "0.1", "--out", str(tmp_path)])
    assert code == 2


def test_net_m_past_numpy_index_range_exits_2(tmp_path, capsys):
    # m * m exceeds intp: numpy would refuse the array before allocating it
    assert main(["net", "--model", "rg", "--m", "100000000000", "--p", "0.1",
                 "--out", str(tmp_path / "net")]) == 2
    assert capsys.readouterr().err == (
        "error: m=100000000000 is too large for an m x m adjacency\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["edges.txt", "stats.json"])
def test_net_failed_write_leaves_no_file(tmp_path, monkeypatch, name):
    # the disk fills up after the first 5 characters of one artifact's write
    real_open = builtins.open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return HalfFile(fh, 5) if name in str(path) else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError):
        main(["net", "--model", "rg", "--m", "30", "--p", "0.3",
              "--out", str(tmp_path)])
    monkeypatch.undo()
    # edges.txt is written first, so it is whole when stats.json fails
    kept = [] if name == "edges.txt" else ["edges.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == kept


def test_net_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["net", "--model", "rg", "--m", "5", "--p", "1.0",
                 "--out", str(taken)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot make directory {taken}: File exists\n")


def test_net_out_file_that_is_a_directory_exits_2(tmp_path, capsys):
    (tmp_path / "edges.txt").mkdir()
    assert main(["net", "--model", "rg", "--m", "5", "--p", "1.0",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'edges.txt'}: is a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.txt"]
    assert list((tmp_path / "edges.txt").iterdir()) == []


def test_net_out_with_an_overlong_name_exits_2(tmp_path, capsys):
    out = tmp_path / LONG
    assert main(["net", "--model", "rg", "--m", "5", "--p", "1.0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot make directory {out}: File name too long\n")
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["net", "--m", "10"])  # --model missing
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", "-70000", "x", "1.5", ""])
@pytest.mark.parametrize("command", ["net", "run", "sweep"])
def test_bad_seed_exits_2_naming_seed(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    if command == "net":
        argv = ["net", "--model", "rg", "--m", "10", "--p", "0.5"]
    else:
        over = {"sweep": {"betas": [0.5, 1.0]}} if command == "sweep" else {}
        argv = [command, "--config", write_config(tmp_path, **over)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out), "--seed", seed])
    assert exc.value.code == 2
    assert "argument --seed: expected an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# run / sweep
# ----------------------------------------------------------------------


def test_run_executes_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("N=3 beta=0.5 mode=ngg iter_cvg=")
    assert (out / "point000_run000.csv").exists()
    assert (out / "point000_run001.csv").exists()
    assert (out / "point000_avg.csv").exists()
    assert (out / "report.json").exists()


def test_run_rejects_sweep_config(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"betas": [0.5, 1.0]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_sweep_requires_sweep_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_runs_every_point(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"betas": [0.5, 1.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("N=3 beta=0.5")
    assert lines[1].startswith("N=3 beta=1")
    assert (out / "point001_run001.csv").exists()


def test_run_seed_flag_overrides_master_seed(tmp_path, capsys):
    cfg_a = write_config(tmp_path, master_seed=9)
    d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
    main(["run", "--config", cfg_a, "--out", str(d1)])
    main(["run", "--config", cfg_a, "--out", str(d2), "--seed", "77"])
    main(["run", "--config", write_config(tmp_path, master_seed=77),
          "--out", str(d3)])
    t1 = (d1 / "point000_run000.csv").read_bytes()
    t2 = (d2 / "point000_run000.csv").read_bytes()
    t3 = (d3 / "point000_run000.csv").read_bytes()
    assert t2 != t1
    assert t2 == t3
    config = json.loads((d2 / "report.json").read_text())["config"]
    assert config["master_seed"] == 77
    assert parse_config(config).master_seed == 77


def test_run_unconverged_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, game={"n": 3, "beta": 0.5,
                                       "max_iterations": 1})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    captured = capsys.readouterr()
    assert "iter_cvg=n/a" in captured.out
    assert "unconverged" in captured.err


@pytest.mark.parametrize("vocabulary, code", [(2**63, 0), (2**64, 2)])
def test_run_vocabulary_past_numpy_integers_exits_2(tmp_path, capsys,
                                                    vocabulary, code):
    # numpy's integers(high), the invention draw, takes high up to 2**63
    cfg = write_config(tmp_path, game={"n": 3, "beta": 0.5,
                                       "vocabulary": vocabulary})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == ("" if code == 0 else (
        "error: game.vocabulary: vocabulary size must be in [1, 2**63], "
        f"got {vocabulary}\n"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_out_naming_a_file_exits_2(tmp_path, capsys, command):
    over = {"sweep": {"betas": [0.5, 1.0]}} if command == "sweep" else {}
    cfg = write_config(tmp_path, **over)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "--config", cfg, "--out", str(taken)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot make directory {taken}: File exists\n")


def test_run_out_with_an_overlong_name_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / LONG
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot make directory {out}: File name too long\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_run_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_run_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_run_non_utf8_config_exits_2_naming_it(tmp_path, capsys):
    # JSON files are UTF-8 (RFC 8259), whatever the locale
    cfg = Path(write_config(tmp_path))
    cfg.write_bytes(b"\xff\xfe" + cfg.read_text().encode("utf-16-le"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: 'utf-8' codec")
    assert not (tmp_path / "o").exists()


# ----------------------------------------------------------------------
# plot
# ----------------------------------------------------------------------


@pytest.fixture
def traces(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "runs"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    return [str(out / "point000_run000.csv"), str(out / "point000_run001.csv")]


def test_plot_trace_kind(tmp_path, traces, capsys):
    svg = tmp_path / "chart.svg"
    code = main(["plot", "--kind", "n-diff", "--inputs", *traces,
                 "--out", str(svg)])
    assert code == 0
    paths = svg_elements(svg, "path")
    assert len(paths) == 2  # one polyline per input trace
    desc = svg_elements(svg, "desc")[0].text
    assert desc == "kind=n-diff;yscale=linear;series=2"
    texts = " ".join(t.text or "" for t in svg_elements(svg, "text"))
    assert "point000_run000" in texts  # default labels are file stems


def test_plot_custom_labels(tmp_path, traces):
    svg = tmp_path / "chart.svg"
    assert main(["plot", "--kind", "sr", "--inputs", *traces,
                 "--labels", "first", "second", "--out", str(svg)]) == 0
    texts = " ".join(t.text or "" for t in svg_elements(svg, "text"))
    assert "first" in texts and "second" in texts


def test_plot_label_count_mismatch_exits_2(tmp_path, traces, capsys):
    assert main(["plot", "--kind", "sr", "--inputs", *traces,
                 "--labels", "only-one", "--out", str(tmp_path / "c.svg")]) == 2


def test_plot_metric_vs_beta(tmp_path, traces):
    svg = tmp_path / "m.svg"
    code = main(["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
                 "--metric", "n_iter_cvg", "--x", "0.8", "0.2",
                 "--out", str(svg)])
    assert code == 0
    assert len(svg_elements(svg, "path")) == 1
    desc = svg_elements(svg, "desc")[0].text
    assert desc == "kind=metric-vs-beta;yscale=log;series=1"


@pytest.mark.parametrize("x", [["0.3", "0.30000000000000004"], ["1e17"],
                               ["0", "5e-324"]], ids=" ".join)
def test_plot_metric_vs_beta_narrow_x_exits_cleanly(tmp_path, traces, x):
    # in a capped child: a tick loop that never ends is killed, not waited on
    proc = run_capped(["-m", "ngg.cli", "plot", "--kind", "metric-vs-beta",
                       "--metric", "n_iter_cvg", "--x", *x,
                       "--inputs", *traces[:len(x)], "--out", str(tmp_path / "m.svg")])
    assert proc.returncode in (0, 2) and "Traceback" not in proc.stderr, proc.stderr


def test_plot_metric_vs_beta_linear_for_other_metrics(tmp_path, traces):
    svg = tmp_path / "m2.svg"
    assert main(["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
                 "--metric", "n_total_max", "--x", "0.2", "0.8",
                 "--out", str(svg)]) == 0
    assert "yscale=linear" in svg_elements(svg, "desc")[0].text


def test_plot_metric_vs_beta_takes_one_label(tmp_path, traces, capsys):
    # the kind draws one series, so a second label would go unused
    svg = tmp_path / "m.svg"
    args = ["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
            "--metric", "n_iter_cvg", "--x", "0.8", "0.2", "--out", str(svg)]
    capsys.readouterr()
    assert main([*args, "--labels", "first", "second"]) == 2
    assert capsys.readouterr().err == (
        "error: --labels takes one value with --kind metric-vs-beta, got 2\n")
    assert not svg.exists()
    assert main([*args, "--labels", "trend"]) == 0
    texts = " ".join(t.text or "" for t in svg_elements(svg, "text"))
    assert "trend" in texts


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_plot_metric_vs_beta_non_finite_x_exits_2(tmp_path, traces, capsys, x):
    svg = tmp_path / "m.svg"
    capsys.readouterr()
    assert main(["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
                 "--metric", "n_iter_cvg", "--x", x, "0.5",
                 "--out", str(svg)]) == 2
    assert capsys.readouterr().err == (
        f"error: --x values must be finite, got [{x}, 0.5]\n")
    assert not svg.exists()


@pytest.mark.parametrize("flag", [["--metric", "n_iter_cvg"], ["--x", "1", "2"]])
def test_plot_trace_kind_rejects_metric_vs_beta_flag(tmp_path, traces, capsys,
                                                     flag):
    svg = tmp_path / "c.svg"
    capsys.readouterr()
    assert main(["plot", "--kind", "sr", "--inputs", *traces, *flag,
                 "--out", str(svg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag[0]} needs --kind metric-vs-beta\n")
    assert not svg.exists()


def test_plot_metric_vs_beta_requires_metric_and_x(tmp_path, traces, capsys):
    assert main(["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
                 "--out", str(tmp_path / "c.svg")]) == 2
    assert main(["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
                 "--metric", "n_iter_cvg", "--x", "0.2",
                 "--out", str(tmp_path / "c.svg")]) == 2


@pytest.mark.parametrize("metric", ["n_iter_cvg", "n_total_max", "n_diff_max"])
def test_plot_metric_vs_beta_reads_averages_from_report(tmp_path, monkeypatch,
                                                        metric):
    cfg = write_config(tmp_path, sweep={"betas": [0.5, 1.0]})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    plotted = []
    monkeypatch.setattr("ngg.cli.render_line_chart",
                        lambda series, **kw: plotted.extend(series) or "<svg/>")
    assert main(["plot", "--kind", "metric-vs-beta", "--metric", metric,
                 "--inputs", str(out / "point001_avg.csv"),
                 str(out / "point000_avg.csv"), "--x", "1.0", "0.5",
                 "--out", str(tmp_path / "m.svg")]) == 0
    points = json.loads((out / "report.json").read_text())["points"]
    (_, xs, ys), = plotted
    assert xs == [0.5, 1.0]
    assert ys == [row[metric]["mean"] for row in points]
    # a single run's trace takes that run's row of runs_detail
    plotted.clear()
    assert main(["plot", "--kind", "metric-vs-beta", "--metric", metric,
                 "--inputs", str(out / "point001_run001.csv"), "--x", "1.0",
                 "--out", str(tmp_path / "r.svg")]) == 0
    (_, xs, ys), = plotted
    assert ys == [points[1]["runs_detail"][1][metric]]


def test_plot_metric_vs_beta_without_converged_run_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, game={"n": 3, "beta": 0.5,
                                       "max_iterations": 1})
    out = tmp_path / "capped"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 4
    capsys.readouterr()
    # the point's average, and one of its capped runs
    for path in (str(out / "point000_avg.csv"), str(out / "point000_run000.csv")):
        assert main(["plot", "--kind", "metric-vs-beta", "--metric",
                     "n_iter_cvg", "--inputs", path, "--x", "0.5",
                     "--out", str(tmp_path / "m.svg")]) == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "m.svg").exists()


@pytest.mark.parametrize("metric", ["n_iter_cvg", "n_total_max", "n_diff_max"])
def test_plot_metric_vs_beta_needs_a_report_naming_the_trace(tmp_path, capsys,
                                                             metric):
    cfg = write_config(tmp_path, network={"model": "rg", "m": 60, "p": 0.2},
                       game={"n": 3, "beta": 0.5, "max_iterations": 5})
    out = tmp_path / "capped"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 4
    capsys.readouterr()
    # a capped run's trace copied away from its report, and one that the
    # report beside it does not name
    away = tmp_path / "away"
    away.mkdir()
    shutil.copy(out / "point000_run000.csv", away)
    shutil.copy(out / "point000_run000.csv", out / "renamed.csv")
    for path in (str(away / "point000_run000.csv"), str(out / "renamed.csv")):
        assert main(["plot", "--kind", "metric-vs-beta", "--metric", metric,
                     "--inputs", path, "--x", "0.5",
                     "--out", str(tmp_path / "m.svg")]) == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "m.svg").exists()


def test_plot_metric_vs_beta_rejects_foreign_report(tmp_path, capsys, traces):
    runs = Path(traces[0]).parent
    (runs / "report.json").write_text('{"points": [{"trace": 1}]}')
    assert main(["plot", "--kind", "metric-vs-beta", "--metric", "n_iter_cvg",
                 "--inputs", str(runs / "point000_avg.csv"), "--x", "0.5",
                 "--out", str(tmp_path / "m.svg")]) == 2
    assert "report.json" in capsys.readouterr().err


@pytest.mark.parametrize("spoil", ["utf-16", "text-metric"])
def test_plot_metric_vs_beta_unreadable_report_exits_2(tmp_path, capsys, traces,
                                                       spoil):
    report = Path(traces[0]).parent / "report.json"
    if spoil == "utf-16":  # JSON files are UTF-8 (RFC 8259)
        report.write_bytes(b"\xff\xfe" + report.read_text().encode("utf-16-le"))
    else:  # a run's value that is no number
        data = json.loads(report.read_text())
        data["points"][0]["runs_detail"][0]["n_iter_cvg"] = "soon"
        report.write_text(json.dumps(data))
    assert main(["plot", "--kind", "metric-vs-beta", "--metric", "n_iter_cvg",
                 "--inputs", traces[0], "--x", "0.5",
                 "--out", str(tmp_path / "m.svg")]) == 2
    assert "report.json" in capsys.readouterr().err
    assert not (tmp_path / "m.svg").exists()


def test_plot_failed_write_leaves_no_file(tmp_path, monkeypatch, traces):
    # the disk fills up after the first 5 characters of the chart
    real_open = builtins.open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return HalfFile(fh, 5) if "chart.svg" in str(path) else fh

    plots = tmp_path / "plots"
    plots.mkdir()
    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError):
        main(["plot", "--kind", "sr", "--inputs", *traces,
              "--out", str(plots / "chart.svg")])
    monkeypatch.undo()
    assert list(plots.iterdir()) == []


def test_plot_out_in_missing_directory_exits_2(tmp_path, capsys, traces):
    svg = tmp_path / "missing_dir" / "x.svg"
    capsys.readouterr()
    assert main(["plot", "--kind", "sr", "--inputs", *traces,
                 "--out", str(svg)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {svg}: no such directory\n")
    assert not svg.parent.exists()


def test_plot_out_naming_a_directory_exits_2(tmp_path, capsys, traces):
    adir = tmp_path / "adir"
    adir.mkdir()
    capsys.readouterr()
    assert main(["plot", "--kind", "sr", "--inputs", *traces,
                 "--out", str(adir)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {adir}: is a directory\n")
    assert list(adir.iterdir()) == []
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("name, reason", [
    (LONG + ".svg", "File name too long"),
    (LONG + "/x.svg", "no such directory"),
], ids=["file", "directory"])
def test_plot_out_with_an_overlong_name_exits_2(tmp_path, capsys, traces, name,
                                                reason):
    svg = tmp_path / name
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["plot", "--kind", "sr", "--inputs", *traces,
                 "--out", str(svg)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {svg}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_plot_non_finite_trace_value_exits_2(tmp_path, capsys, value):
    trace = tmp_path / "trace.csv"
    trace.write_text("iteration,n_total,n_diff,sr,group_size,n_transmitted\r\n"
                     f"1,4,2,0.5,3,1\r\n2,{value},1,1.0,3,1\r\n")
    svg = tmp_path / "c.svg"
    assert main(["plot", "--kind", "n-total", "--inputs", str(trace),
                 "--out", str(svg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {trace}: column n_total holds a non-finite value\n")
    assert not svg.exists()


@pytest.mark.parametrize("column", ["iteration", "n_total"])
def test_plot_values_spanning_past_float_range_exit_2(tmp_path, capsys, column):
    # each value is finite, but their span overflows to inf
    rows = [[1, 4, 2, 0.5, 3, 1], [2, 4, 1, 1.0, 3, 1]]
    at = ["iteration", "n_total"].index(column)
    rows[0][at], rows[1][at] = "-1e308", "1e308"
    trace = tmp_path / "trace.csv"
    trace.write_text("iteration,n_total,n_diff,sr,group_size,n_transmitted\n"
                     + "".join(",".join(map(str, r)) + "\n" for r in rows))
    svg = tmp_path / "c.svg"
    assert main(["plot", "--kind", "n-total", "--inputs", str(trace),
                 "--out", str(svg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {trace}: the values span more than the float range\n")
    assert not svg.exists()


def test_plot_rejects_foreign_csv(tmp_path, capsys):
    alien = tmp_path / "alien.csv"
    alien.write_text("time,value\n1,2\n")
    assert main(["plot", "--kind", "sr", "--inputs", str(alien),
                 "--out", str(tmp_path / "c.svg")]) == 2


# ----------------------------------------------------------------------
# entry points started as child processes
# ----------------------------------------------------------------------


def test_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "ngg.cli", "--version"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert proc.returncode == 0


def test_console_script_available(tmp_path):
    # Build the console script that an installer writes from
    # [project.scripts], then start it by name through PATH.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["ngg"]
    ep = EntryPoint("ngg", value, "console_scripts")
    assert ep.load() is main

    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "ngg"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {ep.module} import {ep.attr}\n"
                      f"sys.exit({ep.attr}())\n")
    script.chmod(0o755)

    env = child_env()
    prepend(env, "PATH", bindir)
    proc = subprocess.run(
        ["ngg", "net", "--model", "rg", "--m", "5", "--p", "1.0",
         "--out", str(tmp_path / "net")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "RG-1 m=5" in proc.stdout, proc.stderr
