"""Command-line interface: artifacts, exit codes, SVG output."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from conftest import child_env, prepend
from ngg.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["net", "--m", "10"])  # --model missing
    assert exc.value.code == 2


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


def test_run_unconverged_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, game={"n": 3, "beta": 0.5,
                                       "max_iterations": 1})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    captured = capsys.readouterr()
    assert "iter_cvg=n/a" in captured.out
    assert "unconverged" in captured.err


def test_run_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_run_bad_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


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


def test_plot_metric_vs_beta_linear_for_other_metrics(tmp_path, traces):
    svg = tmp_path / "m2.svg"
    assert main(["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
                 "--metric", "n_total_max", "--x", "0.2", "0.8",
                 "--out", str(svg)]) == 0
    assert "yscale=linear" in svg_elements(svg, "desc")[0].text


def test_plot_metric_vs_beta_requires_metric_and_x(tmp_path, traces, capsys):
    assert main(["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
                 "--out", str(tmp_path / "c.svg")]) == 2
    assert main(["plot", "--kind", "metric-vs-beta", "--inputs", *traces,
                 "--metric", "n_iter_cvg", "--x", "0.2",
                 "--out", str(tmp_path / "c.svg")]) == 2


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
