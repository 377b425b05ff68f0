"""Experiment harness: seeds, config validation, artifact reproducibility."""

import builtins
import concurrent.futures
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ngg import harness, metrics
from ngg.engine import GameParams
from ngg.errors import InvalidParamError
from ngg.harness import (
    ExperimentConfig,
    SweepSpec,
    _net_seed_for,
    _run_streams,
    derive_seed,
    load_config,
    parse_config,
    run_experiment,
)
from ngg.metrics import read_trace_columns
from ngg.netgen import generate

from conftest import oracle_n_iter_cvg


def base_raw(**over):
    raw = {
        "network": {"model": "rg", "m": 12, "p": 0.4},
        "game": {"n": 3, "beta": 0.5},
        "repetitions": 2,
        "master_seed": 42,
    }
    raw.update(over)
    return raw


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------


def test_derive_seed_frozen_vectors():
    # pinned outputs of the mixing function; any change to the derivation
    # breaks reproducibility of published results
    assert derive_seed(0, 0, 0) == 7289247825070049539
    assert derive_seed(0, 0, 1) == 4051121226632527590
    assert derive_seed(0, 1, 0) == 5149709544394971286
    assert derive_seed(1, 0, 0) == 12415476224630289087
    assert derive_seed(12345, 3, 17) == 4892362549790071009
    assert derive_seed(2**64 - 1, 999, 999) == 3402887673083970283


def test_derive_seed_no_collisions_nearby():
    seen = set()
    for master in (0, 1, 42):
        for point in range(100):
            for run in range(100):
                seen.add(derive_seed(master, point, run))
    assert len(seen) == 3 * 100 * 100


def test_derive_seed_range_and_determinism():
    for args in [(0, 0, 0), (7, 2, 3), (2**63, 50, 1)]:
        s = derive_seed(*args)
        assert 0 <= s < 2**64
        assert derive_seed(*args) == s


def test_run_streams_are_stable_children():
    a, b = _run_streams(123)
    a2, b2 = _run_streams(123)
    assert np.random.default_rng(a).integers(1 << 30) == \
        np.random.default_rng(a2).integers(1 << 30)
    assert np.random.default_rng(b).integers(1 << 30) == \
        np.random.default_rng(b2).integers(1 << 30)
    assert np.random.default_rng(a).integers(1 << 30) != \
        np.random.default_rng(b).integers(1 << 30)


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------


def test_parse_minimal_config():
    cfg = parse_config(base_raw())
    assert cfg.network.model == "rg" and cfg.network.p == 0.4
    assert cfg.game.n == 3 and cfg.game.beta == 0.5
    assert cfg.game.mode == "ngg"
    assert cfg.repetitions == 2 and cfg.master_seed == 42
    assert cfg.sweep is None
    assert cfg.sweep_points() == [cfg.game]


@pytest.mark.parametrize("mutate,field", [
    (lambda r: r.update(extra=1), "<root>.extra"),
    (lambda r: r.pop("repetitions"), "<root>.repetitions"),
    (lambda r: r["network"].update(model="grid"), "network.model"),
    (lambda r: r["network"].update(k=3), "network.k"),
    (lambda r: r["network"].pop("p"), "network.p"),
    (lambda r: r["network"].update(m="big"), "network.m"),
    pytest.param(lambda r: r["network"].update(m=10**11), "network.m",
                 id="<lambda>-network"),  # numpy refuses m * m
    pytest.param(lambda r: r["game"].update(beta=0.0), "game.beta",
                 id="<lambda>-game0"),
    (lambda r: r["game"].update(beta="half"), "game.beta"),
    pytest.param(lambda r: r["game"].update(n=1), "game.n", id="<lambda>-game1"),
    (lambda r: r["game"].update(n=13), "game.n"),
    pytest.param(lambda r: r["game"].update(mode="loud"), "game.mode",
                 id="<lambda>-game2"),
    (lambda r: r["game"].update(tempo=3), "game.tempo"),
    (lambda r: r.update(repetitions=0), "repetitions"),
    (lambda r: r.update(master_seed=-1), "master_seed"),
    (lambda r: r.update(parallelism=0), "parallelism"),
    (lambda r: r.update(fixed_network="false"), "fixed_network"),
    (lambda r: r.update(fixed_network=1), "fixed_network"),
    (lambda r: r.update(output_dir=5), "output_dir"),
    pytest.param(lambda r: r.update(sweep={}), "sweep", id="<lambda>-sweep0"),
    (lambda r: r.update(sweep={"betas": []}), "sweep.betas"),
    (lambda r: r.update(sweep={"betas": [0.5], "speed": [1]}), "sweep.speed"),
    (lambda r: r.update(sweep={"modes": ["loudest"]}), "sweep.modes"),
    pytest.param(lambda r: r.update(sweep={"betas": [0.5, 2.0]}), "sweep.betas",
                 id="<lambda>-sweep1"),
    (lambda r: r.update(sweep={"group_sizes": [3, 13]}), "sweep.group_sizes"),
])
def test_parse_rejects_bad_configs(mutate, field):
    raw = base_raw()
    mutate(raw)
    with pytest.raises(InvalidParamError) as exc:
        parse_config(raw)
    assert exc.value.field == field


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_NETWORKS = ({"model": "rg", "m": 12, "p": 0.4},
             {"model": "ws", "m": 12, "k": 2, "rp": 0.2},
             {"model": "ba", "m": 12, "n0": 3, "e": 2})
# Every key of a full config, as a path from the root; () is the root.
_PATHS = [(), ("network",), ("network", "model"), ("network", "m"),
          ("network", "p"), ("network", "k"), ("network", "rp"),
          ("network", "n0"), ("network", "e"), ("game",), ("game", "n"),
          ("game", "beta"), ("game", "mode"), ("game", "max_iterations"),
          ("game", "vocabulary"), ("game", "group_size_basis"),
          ("repetitions",), ("master_seed",), ("output_dir",), ("sweep",),
          ("sweep", "betas"), ("sweep", "group_sizes"), ("sweep", "modes"),
          ("fixed_network",), ("parallelism",)]


@given(st.sampled_from(_NETWORKS), st.sampled_from(_PATHS), st.booleans(), _JSON)
@example(_NETWORKS[0], ("game", "beta"), False, 10**400)
# unhashable values where the parser looks a name up
@example(_NETWORKS[0], ("network", "model"), False, [])
@example(_NETWORKS[0], ("game", "mode"), False, [])
@example(_NETWORKS[0], ("sweep", "modes"), False, [[]])
def test_parse_config_raises_only_validation_error(network, path, drop, value):
    raw = base_raw(network=dict(network), output_dir="o", fixed_network=False,
                   parallelism=1, sweep={"betas": [0.5], "group_sizes": [3],
                                         "modes": ["ngg"]})
    raw["game"].update(max_iterations=10, vocabulary=4,
                       group_size_basis="actual")
    if not path:
        raw = value
    else:
        *parents, key = path
        owner = raw
        for name in parents:
            owner = owner[name]
        if drop:
            owner.pop(key, None)
        else:
            owner[key] = value
    try:
        parse_config(raw)
    except InvalidParamError as exc:
        assert exc.field and str(exc).startswith(exc.field + ": ")


def test_parse_boolean_is_not_a_number():
    raw = base_raw()
    raw["game"]["n"] = True
    with pytest.raises(InvalidParamError):
        parse_config(raw)


def test_sweep_points_order_is_modes_sizes_betas():
    raw = base_raw(sweep={"betas": [0.2, 0.8], "group_sizes": [3, 4],
                          "modes": ["ngg", "ngmh"]})
    cfg = parse_config(raw)
    pts = [(p.mode, p.n, p.beta) for p in cfg.sweep_points()]
    assert pts == [
        ("ngg", 3, 0.2), ("ngg", 3, 0.8), ("ngg", 4, 0.2), ("ngg", 4, 0.8),
        ("ngmh", 3, 0.2), ("ngmh", 3, 0.8), ("ngmh", 4, 0.2), ("ngmh", 4, 0.8),
    ]


def test_sweep_missing_dimension_uses_base_game():
    cfg = parse_config(base_raw(sweep={"betas": [0.2, 0.8]}))
    pts = cfg.sweep_points()
    assert [(p.mode, p.n, p.beta) for p in pts] == [("ngg", 3, 0.2), ("ngg", 3, 0.8)]


def test_to_dict_echo_materialises_defaults():
    d = parse_config(base_raw()).to_dict()
    assert d["network"] == {"model": "rg", "m": 12, "p": 0.4}
    assert d["game"]["max_iterations"] == 1_000_000
    assert d["game"]["vocabulary"] is None
    assert d["fixed_network"] is False
    assert "sweep" not in d


def test_integer_valued_reals_echo_as_floats(tmp_path):
    # JSON has one number type: `"beta": 1` means the real 1.0, and the
    # report says so, as it does for a written 0.5
    raw = base_raw(network={"model": "ws", "m": 12, "k": 2, "rp": 0},
                   game={"n": 3, "beta": 1}, repetitions=1,
                   sweep={"betas": [1, 0.5]})
    cfg = parse_config(raw)
    echo = cfg.to_dict()
    assert repr(echo["network"]["rp"]) == "0.0"
    assert repr(echo["game"]["beta"]) == "1.0"
    assert repr(echo["sweep"]["betas"]) == "[1.0, 0.5]"
    report = run_experiment(cfg, tmp_path)
    assert [repr(row["beta"]) for row in report["points"]] == ["1.0", "0.5"]
    text = (tmp_path / "report.json").read_text()
    assert '"beta": 1.0' in text and '"rp": 0.0' in text
    rg = parse_config(base_raw(network={"model": "rg", "m": 12, "p": 1}))
    assert repr(rg.to_dict()["network"]["p"]) == "1.0"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["game.beta", "sweep.betas", "network.p",
                                   "network.rp"])
def test_non_finite_reals_rejected_naming_the_field(field, value):
    # json.load accepts NaN and Infinity; no real field does
    raw = base_raw()
    if field == "network.rp":
        raw["network"] = {"model": "ws", "m": 12, "k": 2, "rp": value}
    elif field == "sweep.betas":
        raw["sweep"] = {"betas": [0.5, value]}
    else:
        obj, key = field.split(".")
        raw[obj][key] = value
    with pytest.raises(InvalidParamError) as exc:
        parse_config(json.loads(json.dumps(raw)))
    assert exc.value.field == field


@pytest.mark.parametrize("field", ["network.m", "network.p", "game.n",
                                   "game.beta"])
def test_null_in_a_required_field_rejected_naming_it(field):
    raw = base_raw()
    obj, key = field.split(".")
    raw[obj][key] = None
    with pytest.raises(InvalidParamError) as exc:
        parse_config(json.loads(json.dumps(raw)))
    assert exc.value.field == field


_SWEEPS = (None,
           {"betas": [0.2, 0.9]},
           {"betas": [0.2], "group_sizes": [3, 4]},
           {"betas": [0.2, 1.0], "group_sizes": [4], "modes": ["minimal", "ngg"]})


@pytest.mark.parametrize("network", _NETWORKS, ids=lambda n: n["model"])
@pytest.mark.parametrize("optional", [False, True], ids=["bare", "every-key"])
@pytest.mark.parametrize("sweep", _SWEEPS, ids=lambda s: f"{len(s or ())}d")
def test_to_dict_roundtrips_through_parse_config(network, optional, sweep):
    raw = base_raw(network=dict(network))
    if optional:
        raw.update(output_dir="elsewhere", fixed_network=True, parallelism=2)
        raw["game"].update(mode="ngmh", max_iterations=50, vocabulary=4,
                           group_size_basis="actual")
    if sweep is not None:
        raw["sweep"] = sweep
    cfg = parse_config(raw)
    echo = cfg.to_dict()
    assert parse_config(echo) == cfg
    assert parse_config(json.loads(json.dumps(echo))) == cfg
    if optional:
        assert echo == raw  # every key given: the echo is the input


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(InvalidParamError,
                       match=re.escape(f"{path}: Expecting property name")):
        load_config(path)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_raw()))
    assert load_config(path) == parse_config(base_raw())


# ----------------------------------------------------------------------
# Experiment execution
# ----------------------------------------------------------------------


def small_cfg(**over):
    raw = base_raw(sweep={"betas": [0.5, 1.0]}, **over)
    return parse_config(raw)


def test_run_experiment_artifacts(tmp_path):
    cfg = small_cfg()
    report = run_experiment(cfg, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "point000_avg.csv", "point000_run000.csv", "point000_run001.csv",
        "point001_avg.csv", "point001_run000.csv", "point001_run001.csv",
        "report.json",
    ]
    assert sum(len(row["runs_detail"]) for row in report["points"]) == 4
    assert report["tool"] == "ngg"
    assert report["master_seed"] == 42
    assert len(report["points"]) == 2
    row = report["points"][0]
    assert row["beta"] == 0.5 and row["runs"] == 2
    seeds = [d["seed"] for d in row["runs_detail"]]
    assert seeds == [derive_seed(42, 0, 0), derive_seed(42, 0, 1)]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["points"] == report["points"]


def test_report_rows_match_persisted_traces(tmp_path):
    cfg = small_cfg()
    report = run_experiment(cfg, tmp_path)
    for row in report["points"]:
        cvg, totals = [], []
        for detail in row["runs_detail"]:
            cols = read_trace_columns(tmp_path / detail["trace"])
            n_iter = oracle_n_iter_cvg(cols["n_total"], cols["n_diff"],
                                       cfg.network.m)
            assert (n_iter is not None) == detail["converged"]
            assert n_iter == detail["n_iter_cvg"]
            assert cols["n_total"].max() == detail["n_total_max"]
            assert cols["n_diff"].max() == detail["n_diff_max"]
            totals.append(int(cols["n_total"].max()))
            if n_iter is not None:
                cvg.append(n_iter)
        assert row["n_total_max"]["mean"] == np.mean(totals)
        assert row["converged_runs"] == len(cvg)
        if cvg:
            assert row["n_iter_cvg"]["mean"] == np.mean(cvg)


def test_rerun_reproduces_artifacts_byte_for_byte(tmp_path):
    cfg = small_cfg()
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run_experiment(cfg, d1)
    run_experiment(cfg, d2)
    for p1 in sorted(d1.iterdir()):
        p2 = d2 / p1.name
        if p1.name == "report.json":
            r1 = json.loads(p1.read_text())
            r2 = json.loads(p2.read_text())
            r1.pop("metadata"), r2.pop("metadata")
            assert r1 == r2
        else:
            assert p1.read_bytes() == p2.read_bytes()


def test_parallel_matches_sequential(tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    run_experiment(small_cfg(), seq)
    run_experiment(small_cfg(parallelism=2), par)
    for p1 in sorted(seq.iterdir()):
        if p1.name != "report.json":
            assert p1.read_bytes() == (par / p1.name).read_bytes()


def test_run_csvs_written_as_results_arrive(tmp_path, monkeypatch):
    # the last job fails: the runs before it are already on disk
    real_job = harness._job

    def job(args):
        if args[1:3] == (1, 1):
            raise RuntimeError("last run fails")
        return real_job(args)

    monkeypatch.setattr(harness, "_job", job)
    with pytest.raises(RuntimeError, match="last run fails"):
        run_experiment(small_cfg(), tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["point000_avg.csv", "point000_run000.csv",
                     "point000_run001.csv", "point001_run000.csv"]


def test_report_metadata_lists_every_run(tmp_path):
    cfg = small_cfg()
    report = run_experiment(cfg, tmp_path)
    runs = report["metadata"]["runs"]
    assert [(r["point"], r["run"]) for r in runs] == [
        (pi, ri) for pi in range(2) for ri in range(2)]
    for r in runs:
        row = report["points"][r["point"]]["runs_detail"][r["run"]]
        trace = read_trace_columns(tmp_path / row["trace"])
        assert r["iterations"] == len(trace["iteration"])
        assert isinstance(r["wall_s"], float) and r["wall_s"] > 0.0
        assert r["net_s"] > 0.0 and r["game_s"] > 0.0
        assert r["iters_per_s"] == r["iterations"] / r["game_s"]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["metadata"]["runs"] == runs


def test_failed_report_write_leaves_no_file(tmp_path, monkeypatch):
    real_open = builtins.open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if "report.json" in str(path):
            fh.write('{"tool": ')
            fh.close()
            raise OSError(28, "No space left on device")
        return fh

    monkeypatch.setattr(metrics, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        run_experiment(small_cfg(), tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "report.json" not in names
    assert all(n.endswith(".csv") and not n.startswith(".") for n in names)


class _RecordingPool:
    """A stand-in ProcessPoolExecutor that records its size and runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def test_worker_count_clamped_to_cpus(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    # run_experiment imports the pool class from here, and only for workers > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.sizes.clear()
    run_experiment(small_cfg(parallelism=64), tmp_path)
    assert _RecordingPool.sizes == [2]
    assert "using 2 of 64 workers" in capsys.readouterr().err


def test_fixed_network_pins_topology_across_runs():
    cfg_fixed = parse_config(base_raw(fixed_network=True))
    nets = [generate(cfg_fixed.network,
                     np.random.default_rng(_net_seed_for(cfg_fixed, 0, ri)))
            for ri in range(3)]
    assert all(np.array_equal(nets[0].adj, n.adj) for n in nets[1:])

    cfg_free = parse_config(base_raw())
    nets = [generate(cfg_free.network,
                     np.random.default_rng(_net_seed_for(cfg_free, 0, ri)))
            for ri in range(3)]
    assert not all(np.array_equal(nets[0].adj, n.adj) for n in nets[1:])


def test_unconverged_runs_flagged_not_raised(tmp_path):
    raw = base_raw()
    raw["game"]["max_iterations"] = 1
    cfg = parse_config(raw)
    report = run_experiment(cfg, tmp_path)
    row = report["points"][0]
    assert row["converged_runs"] == 0
    assert row["convergence_rate"] == 0.0
    assert row["n_iter_cvg"] == {"mean": None, "std": None}
    assert row["unconverged_runs"] == [0, 1]


def test_output_dir_from_config_used_when_not_overridden(tmp_path):
    raw = base_raw(output_dir=str(tmp_path / "from_cfg"))
    cfg = parse_config(raw)
    run_experiment(cfg)
    assert (tmp_path / "from_cfg" / "report.json").exists()


def test_experiment_config_direct_construction():
    # the dataclasses are usable without the JSON layer
    cfg = ExperimentConfig(
        network=parse_config(base_raw()).network,
        game=parse_config(base_raw()).game,
        repetitions=1,
        master_seed=7,
        sweep=SweepSpec(betas=(0.5,)),
    )
    assert len(cfg.sweep_points()) == 1


@pytest.mark.parametrize("over,field", [
    ({"repetitions": 0}, "repetitions"),
    ({"parallelism": 0}, "parallelism"),
    ({"master_seed": -1}, "master_seed"),
    ({"fixed_network": "no"}, "fixed_network"),
    ({"sweep": SweepSpec(betas=(0.5, 2.0))}, "sweep.betas"),
    ({"sweep": SweepSpec(group_sizes=(3, 13))}, "sweep.group_sizes"),
    ({"game": GameParams(n=13, beta=0.5)}, "game.n"),
    ({"sweep": SweepSpec()}, "sweep"),
    ({"sweep": SweepSpec(betas=())}, "sweep.betas"),
    ({"network": "rg"}, "network"),
    ({"game": None}, "game"),
    ({"sweep": 5}, "sweep"),
    ({"output_dir": 5}, "output_dir"),
    ({"repetitions": True}, "repetitions"),
    ({"master_seed": 1.5}, "master_seed"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_run_experiment_rejects_a_library_config_before_any_artifact(
        tmp_path, over, field):
    # the config as Python builds it, without the JSON layer: run_experiment
    # holds it to parse_config's rules, naming the same field, and writes
    # nothing; it has no echo either, to_dict() raising the same way
    cfg = replace(parse_config(base_raw()), **over)
    with pytest.raises(InvalidParamError) as exc:
        run_experiment(cfg, tmp_path)
    assert exc.value.field == field
    assert str(exc.value).startswith(field + ": ")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(InvalidParamError) as echoed:
        cfg.to_dict()
    assert echoed.value.field == field
