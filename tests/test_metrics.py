"""Traces, records, summaries, averaging, CSV round trips."""

import builtins
import pickle
import re
import statistics

import numpy as np
import pytest

from ngg import metrics
from ngg.engine import GameParams, PopulationState, RoundOutcome, run_to_convergence
from ngg.errors import InvalidParamError
from ngg.metrics import (
    TRACE_FIELDS,
    RunSummary,
    Trace,
    TraceRecord,
    aggregate_summaries,
    average_runs,
    read_trace_columns,
    snapshot,
    summarize,
    write_trace_csv,
)
from ngg.netgen import NetworkSpec, generate

from conftest import (
    HalfFile,
    make_trace,
    oracle_average_runs,
    oracle_write_trace_csv,
)


def rec(it, total, diff, sr=0.0, size=4, nt=2):
    return TraceRecord(it, total, diff, sr, size, nt)


def random_records(r, n, m=50):
    return [TraceRecord(i, int(r.integers(1, 3 * m)), int(r.integers(1, m)),
                        float(r.random()), int(r.integers(2, 21)),
                        int(r.integers(1, 11)))
            for i in range(1, n + 1)]


def averaged(record) -> bool:
    """Whether every count field holds a float, as an averaged trace's do;
    a run trace's hold ints."""
    return all(isinstance(getattr(record, f), float) for f in TRACE_FIELDS[1:])


def small_run(mode="ngg", seed=3):
    net = generate(NetworkSpec("rg", 25, p=0.3), np.random.default_rng(1))
    return run_to_convergence(net, GameParams(n=4, beta=0.5, mode=mode), seed)


# ----------------------------------------------------------------------
# The columnar trace
# ----------------------------------------------------------------------


def test_trace_indexing_slicing_and_iteration():
    records = random_records(np.random.default_rng(0), 7)
    trace = make_trace(records)
    assert len(trace) == 7
    assert trace[0] == records[0] and trace[-1] == records[-1]
    assert trace[-7] == records[0]
    assert trace[2:5] == records[2:5]
    assert trace[::3] == records[::3]   # iterations of a strided slice kept
    assert trace[:100] == records
    assert list(trace) == records
    assert trace == make_trace(records) and trace != make_trace(records[:-1])
    assert trace != records   # a Trace equals only a Trace
    for bad in (7, -8):
        with pytest.raises(IndexError):
            trace[bad]


def test_run_trace_yields_trace_records():
    trace, summary = small_run()
    assert isinstance(trace, Trace)
    assert type(trace[-1]) is TraceRecord and not averaged(trace[-1])
    assert [r.iteration for r in trace] == list(range(1, len(trace) + 1))
    assert trace[-1].n_total == 25 and trace[-1].n_diff == 1
    assert summary.iterations == len(trace)


def test_trace_survives_pickle():
    for mode in ("ngg", "minimal"):
        trace, _ = small_run(mode)
        back = pickle.loads(pickle.dumps(trace))
        assert back == trace
        assert list(back) == list(trace)
    avg = average_runs([small_run(seed=s)[0] for s in range(3)], m=25)
    back = pickle.loads(pickle.dumps(avg))
    assert back == avg and averaged(back[0])


# ----------------------------------------------------------------------
# Snapshots and summaries
# ----------------------------------------------------------------------


def test_snapshot_reads_counters_and_outcome():
    pop = PopulationState(4)
    pop.learn(0, 5)
    pop.learn(1, 5)
    pop.learn(1, 8)
    outcome = RoundOutcome(3, [5, 8], 2, 2, 2 / 3)
    r = snapshot(pop, outcome, 7)
    assert r == TraceRecord(7, 3, 2, 2 / 3, 3, 2)


def test_summarize_maxima_and_convergence_point():
    # a converged run ends at its first round with n_total == m, n_diff == 1
    trace = make_trace([
        rec(1, 6, 4),
        rec(2, 9, 5),
        rec(3, 7, 2),
        rec(4, 4, 1),
    ])
    for word in (3, 0):   # word 0 is a consensus word too
        s = summarize(trace, converged_word=word)
        assert s.n_total_max == 9
        assert s.n_diff_max == 5
        assert s.n_iter_cvg == 4
        assert s.converged
        assert s.converged_word == word
        assert s.iterations == 4


def test_summarize_unconverged():
    trace = make_trace([rec(1, 6, 4), rec(2, 4, 2)])
    s = summarize(trace, converged_word=None)
    assert not s.converged
    assert s.n_iter_cvg is None
    assert s.converged_word is None
    assert s.iterations == 2


def test_summarize_rejects_empty_trace():
    with pytest.raises(InvalidParamError,
                       match="cannot summarise a run with no iterations"):
        summarize(Trace(), None)


# ----------------------------------------------------------------------
# Averaging
# ----------------------------------------------------------------------


def test_average_identical_traces_is_identity():
    t = [rec(1, 5, 3, 0.25, 4, 2), rec(2, 4, 1, 1.0, 3, 2)]
    avg = average_runs([make_trace(t)] * 3, m=4)
    assert len(avg) == 2
    # the same numbers, but a run trace and an averaged one are unequal
    assert list(avg) == t and avg != make_trace(t)
    for a, r in zip(avg, t):
        assert a.iteration == r.iteration
        assert a.n_total == r.n_total
        assert a.n_diff == r.n_diff
        assert a.sr == r.sr
        assert a.group_size == r.group_size
        assert a.n_transmitted == r.n_transmitted


def test_average_pads_short_runs_with_absorbed_state():
    fast = [rec(1, 6, 3, 0.0, 5, 3), rec(2, 4, 1, 1.0, 3, 3)]
    slow = [rec(1, 6, 5, 0.0, 4, 3), rec(2, 7, 4, 0.5, 4, 3),
            rec(3, 5, 2, 0.5, 4, 3), rec(4, 4, 1, 1.0, 4, 3)]
    avg = average_runs([make_trace(fast), make_trace(slow)], m=4)
    assert len(avg) == 4
    # iteration 3: fast run contributes its absorbed state (m, 1, sr=1)
    assert avg[2].n_total == (4 + 5) / 2
    assert avg[2].n_diff == (1 + 2) / 2
    assert avg[2].sr == (1.0 + 0.5) / 2
    # group_size / n_transmitted carry the last real record forward
    assert avg[2].group_size == (3 + 4) / 2
    assert avg[3].n_transmitted == 3.0


def test_average_is_order_invariant():
    a = make_trace([rec(1, 5, 2, 0.5, 4, 2)])
    b = make_trace([rec(1, 3, 3, 0.0, 2, 2), rec(2, 4, 1, 1.0, 2, 2)])
    c = make_trace([rec(1, 9, 6, 0.25, 5, 2), rec(2, 8, 3, 0.5, 5, 2),
                    rec(3, 4, 1, 1.0, 5, 2)])
    one = average_runs([a, b, c], m=4)
    two = average_runs([c, a, b], m=4)
    assert one == two


def test_average_matches_row_loop_bit_for_bit():
    r = np.random.default_rng(8)
    for _ in range(20):
        runs = [random_records(r, int(r.integers(1, 40)))
                for _ in range(int(r.integers(1, 6)))]
        got = average_runs([make_trace(t) for t in runs], m=50)
        want = oracle_average_runs(runs, 50)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert averaged(a)
            for f in TRACE_FIELDS:
                assert getattr(a, f) == getattr(b, f)   # exact, no tolerance


def test_average_rejects_empty_input():
    with pytest.raises(InvalidParamError,
                       match="average_runs needs non-empty traces"):
        average_runs([], m=4)
    with pytest.raises(InvalidParamError,
                       match="average_runs needs non-empty traces"):
        average_runs([make_trace([rec(1, 2, 1)]), Trace()], m=4)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def summary(total, diff, cvg):
    return RunSummary(total, diff, cvg, cvg is not None, 0 if cvg else None,
                      cvg or 10)


def test_aggregate_means_and_sample_std():
    s = aggregate_summaries([summary(10, 4, 7), summary(14, 6, 11),
                             summary(12, 5, 9)])
    assert s["runs"] == 3 and s["converged_runs"] == 3
    assert s["convergence_rate"] == 1.0
    assert s["n_total_max"]["mean"] == 12.0
    assert abs(s["n_total_max"]["std"] - statistics.stdev([10, 14, 12])) < 1e-12
    assert s["n_diff_max"]["mean"] == 5.0
    assert s["n_iter_cvg"]["mean"] == 9.0
    assert abs(s["n_iter_cvg"]["std"] - statistics.stdev([7, 11, 9])) < 1e-12


def test_aggregate_skips_capped_runs_in_convergence_stats():
    s = aggregate_summaries([summary(10, 4, 8), summary(20, 9, None)])
    assert s["runs"] == 2 and s["converged_runs"] == 1
    assert s["convergence_rate"] == 0.5
    assert s["n_iter_cvg"]["mean"] == 8.0 and s["n_iter_cvg"]["std"] == 0.0
    assert s["n_total_max"]["mean"] == 15.0  # maxima still cover every run


def test_aggregate_all_capped():
    s = aggregate_summaries([summary(10, 4, None)])
    assert s["convergence_rate"] == 0.0
    assert s["n_iter_cvg"]["mean"] is None and s["n_iter_cvg"]["std"] is None


def test_aggregate_rejects_empty():
    with pytest.raises(InvalidParamError,
                       match="aggregate_summaries needs at least one run"):
        aggregate_summaries([])


def test_single_run_std_is_zero():
    s = aggregate_summaries([summary(10, 4, 7)])
    assert s["n_total_max"]["std"] == 0.0 and s["n_iter_cvg"]["std"] == 0.0


# ----------------------------------------------------------------------
# CSV round trips
# ----------------------------------------------------------------------


def test_trace_csv_roundtrip(tmp_path):
    records = [rec(1, 6, 4, 0.0, 5, 2), rec(2, 4, 1, 0.75, 4, 2)]
    path = tmp_path / "trace.csv"
    write_trace_csv(make_trace(records), path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(TRACE_FIELDS)
    cols = read_trace_columns(path)
    for f in TRACE_FIELDS:
        assert cols[f].tolist() == [getattr(r, f) for r in records]


def test_trace_csv_byte_stable(tmp_path):
    trace = make_trace([rec(1, 6, 4, 1 / 3, 5, 2), rec(2, 4, 1, 2 / 3, 4, 2)])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(trace, p1)
    write_trace_csv(trace, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_avg_trace_csv_roundtrip(tmp_path):
    avg = make_trace([TraceRecord(1, 5.5, 2.25, 0.125, 4.5, 2.0)])
    path = tmp_path / "avg.csv"
    write_trace_csv(avg, path)
    cols = read_trace_columns(path)
    assert cols["n_total"].tolist() == [5.5]
    assert cols["n_diff"].tolist() == [2.25]
    assert cols["sr"].tolist() == [0.125]
    assert cols["group_size"].tolist() == [4.5]


def test_trace_csv_bytes_match_csv_writer(tmp_path):
    r = np.random.default_rng(4)
    runs = [make_trace(random_records(r, int(r.integers(1, 60))))
            for _ in range(5)]
    traces = [*runs, small_run()[0], small_run("minimal")[0]]
    traces.append(average_runs(runs, m=50))
    # the block edges: 1 row, exactly one block and one block + 1, for run
    # and averaged traces alike
    block = metrics._CSV_BLOCK
    for n in (1, block, block + 1):
        run = make_trace(random_records(r, n))
        traces += [run, average_runs([run, make_trace(random_records(r, 1))], m=50)]
    for i, t in enumerate(traces):
        want = tmp_path / f"want{i}.csv"
        got = tmp_path / f"got{i}.csv"
        oracle_write_trace_csv(list(t), want)
        write_trace_csv(t, got)
        assert got.read_bytes() == want.read_bytes()


def test_read_trace_columns_equals_float_parse(tmp_path):
    r = np.random.default_rng(6)
    runs = [make_trace(random_records(r, 30)) for _ in range(3)]
    path = tmp_path / "avg.csv"
    write_trace_csv(average_runs(runs, m=50), path)
    rows = path.read_text().splitlines()[1:]
    want = np.array([[float(x) for x in row.split(",")] for row in rows])
    cols = read_trace_columns(path)
    for i, f in enumerate(TRACE_FIELDS):
        assert cols[f].tobytes() == want[:, i].tobytes()


def test_header_only_trace_reads_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_trace_csv(Trace(), path)
    assert all(len(c) == 0 for c in read_trace_columns(path).values())


def test_failed_trace_write_leaves_no_file(tmp_path, monkeypatch):
    # the disk fills up after the first 100 characters of the write
    real_open = builtins.open
    monkeypatch.setattr(metrics, "open",
                        lambda *a, **k: HalfFile(real_open(*a, **k), 100),
                        raising=False)
    trace, _ = small_run()
    with pytest.raises(OSError):
        write_trace_csv(trace, tmp_path / "trace.csv")
    assert list(tmp_path.iterdir()) == []


def test_trace_write_failing_after_the_first_block_keeps_the_old_file(
        tmp_path, monkeypatch):
    # the header and the first block go through, then the disk fills up
    path = tmp_path / "trace.csv"
    path.write_bytes(b"old")
    trace = make_trace(random_records(np.random.default_rng(5),
                                      2 * metrics._CSV_BLOCK))
    real_open = builtins.open
    monkeypatch.setattr(metrics, "open",
                        lambda *a, **k: HalfFile(real_open(*a, **k), 100, after=2),
                        raising=False)
    with pytest.raises(OSError):
        write_trace_csv(trace, path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"old"


def test_read_trace_columns_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,n_total\n1,2\n")
    with pytest.raises(ValueError):
        read_trace_columns(path)


@pytest.mark.parametrize("column", TRACE_FIELDS)
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_read_trace_columns_rejects_non_finite_values(tmp_path, column, value):
    path = tmp_path / "trace.csv"
    write_trace_csv(make_trace([rec(1, 6, 4, 0.5, 5, 2),
                                rec(2, 4, 1, 1.0, 4, 2)]), path)
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[TRACE_FIELDS.index(column)] = value
    path.write_text("\n".join([*lines[:2], ",".join(row)]) + "\n")
    with pytest.raises(ValueError, match=rf"trace.csv: column {column} "
                                         r"holds a non-finite value"):
        read_trace_columns(path)


def test_write_atomic_to_a_directory_raises_before_any_temp_file(tmp_path):
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(InvalidParamError, match=re.escape(
            f"cannot write {target}: is a directory")):
        metrics.write_atomic(target, "text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("name, reason", [
    ("x" * 300, "File name too long"),
    ("missing/x.csv", "No such file or directory"),
    ("afile/x.csv", "Not a directory"),
], ids=["too-long", "no-directory", "file-as-directory"])
def test_write_atomic_to_no_place_for_a_file_raises_naming_it(tmp_path, name,
                                                              reason):
    (tmp_path / "afile").write_text("")
    target = tmp_path / name
    with pytest.raises(InvalidParamError) as exc:
        metrics.write_atomic(target, "text")
    assert str(exc.value) == f"cannot write {target}: {reason}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
