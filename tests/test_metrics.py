"""Trace records, summaries, averaging, CSV round trips."""

import statistics

import pytest

from ngg.engine import PopulationState, RoundOutcome
from ngg.errors import EmptyTraceError
from ngg.metrics import (
    TRACE_FIELDS,
    AvgTraceRecord,
    RunSummary,
    TraceRecord,
    aggregate_summaries,
    average_runs,
    read_trace_columns,
    read_trace_csv,
    snapshot,
    summarize,
    write_trace_csv,
)


def rec(it, total, diff, sr=0.0, size=4, nt=2):
    return TraceRecord(it, total, diff, sr, size, nt)


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
    records = [
        rec(1, 6, 4),
        rec(2, 9, 5),
        rec(3, 7, 2),
        rec(4, 4, 1),   # first n_total == m and n_diff == 1
        rec(5, 4, 1),
    ]
    s = summarize(records, 4, converged_word=3)
    assert s.n_total_max == 9
    assert s.n_diff_max == 5
    assert s.n_iter_cvg == 4
    assert s.converged
    assert s.converged_word == 3
    assert s.iterations == 5


def test_summarize_unconverged():
    records = [rec(1, 6, 4), rec(2, 4, 2)]
    s = summarize(records, 4, converged_word=None)
    assert not s.converged
    assert s.n_iter_cvg is None
    assert s.converged_word is None


def test_summarize_single_word_but_incomplete_is_not_convergence():
    # n_diff == 1 alone is not enough: some memory is empty or duplicated
    s = summarize([rec(1, 3, 1)], 4)
    assert not s.converged


def test_summarize_rejects_empty_trace():
    with pytest.raises(EmptyTraceError):
        summarize([], 4)


# ----------------------------------------------------------------------
# Averaging
# ----------------------------------------------------------------------


def test_average_identical_traces_is_identity():
    t = [rec(1, 5, 3, 0.25, 4, 2), rec(2, 4, 1, 1.0, 3, 2)]
    avg = average_runs([t, t, t], m=4)
    assert len(avg) == 2
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
    avg = average_runs([fast, slow], m=4)
    assert len(avg) == 4
    # iteration 3: fast run contributes its absorbed state (m, 1, sr=1)
    assert avg[2].n_total == (4 + 5) / 2
    assert avg[2].n_diff == (1 + 2) / 2
    assert avg[2].sr == (1.0 + 0.5) / 2
    # group_size / n_transmitted carry the last real record forward
    assert avg[2].group_size == (3 + 4) / 2
    assert avg[3].n_transmitted == 3.0


def test_average_is_order_invariant():
    a = [rec(1, 5, 2, 0.5, 4, 2)]
    b = [rec(1, 3, 3, 0.0, 2, 2), rec(2, 4, 1, 1.0, 2, 2)]
    c = [rec(1, 9, 6, 0.25, 5, 2), rec(2, 8, 3, 0.5, 5, 2), rec(3, 4, 1, 1.0, 5, 2)]
    one = average_runs([a, b, c], m=4)
    two = average_runs([c, a, b], m=4)
    assert one == two


def test_average_rejects_empty_input():
    with pytest.raises(EmptyTraceError):
        average_runs([], m=4)
    with pytest.raises(EmptyTraceError):
        average_runs([[rec(1, 2, 1)], []], m=4)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def summary(total, diff, cvg):
    return RunSummary(total, diff, cvg, cvg is not None, 0 if cvg else None,
                      cvg or 10)


def test_aggregate_means_and_sample_std():
    s = aggregate_summaries([summary(10, 4, 7), summary(14, 6, 11),
                             summary(12, 5, 9)])
    assert s.n_runs == 3 and s.converged_runs == 3
    assert s.convergence_rate == 1.0
    assert s.n_total_max_mean == 12.0
    assert abs(s.n_total_max_std - statistics.stdev([10, 14, 12])) < 1e-12
    assert s.n_diff_max_mean == 5.0
    assert s.n_iter_cvg_mean == 9.0
    assert abs(s.n_iter_cvg_std - statistics.stdev([7, 11, 9])) < 1e-12


def test_aggregate_skips_capped_runs_in_convergence_stats():
    s = aggregate_summaries([summary(10, 4, 8), summary(20, 9, None)])
    assert s.n_runs == 2 and s.converged_runs == 1
    assert s.convergence_rate == 0.5
    assert s.n_iter_cvg_mean == 8.0 and s.n_iter_cvg_std == 0.0
    assert s.n_total_max_mean == 15.0  # maxima still cover every run


def test_aggregate_all_capped():
    s = aggregate_summaries([summary(10, 4, None)])
    assert s.convergence_rate == 0.0
    assert s.n_iter_cvg_mean is None and s.n_iter_cvg_std is None


def test_aggregate_rejects_empty():
    with pytest.raises(EmptyTraceError):
        aggregate_summaries([])


def test_single_run_std_is_zero():
    s = aggregate_summaries([summary(10, 4, 7)])
    assert s.n_total_max_std == 0.0 and s.n_iter_cvg_std == 0.0


# ----------------------------------------------------------------------
# CSV round trips
# ----------------------------------------------------------------------


def test_trace_csv_roundtrip(tmp_path):
    records = [rec(1, 6, 4, 0.0, 5, 2), rec(2, 4, 1, 0.75, 4, 2)]
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(TRACE_FIELDS)
    assert read_trace_csv(path) == records


def test_trace_csv_byte_stable(tmp_path):
    records = [rec(1, 6, 4, 1 / 3, 5, 2), rec(2, 4, 1, 2 / 3, 4, 2)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(records, p1)
    write_trace_csv(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_avg_trace_csv_roundtrip(tmp_path):
    avg = [AvgTraceRecord(1, 5.5, 2.25, 0.125, 4.5, 2.0)]
    path = tmp_path / "avg.csv"
    write_trace_csv(avg, path)
    cols = read_trace_columns(path)
    assert cols["n_total"].tolist() == [5.5]
    assert cols["n_diff"].tolist() == [2.25]
    assert cols["sr"].tolist() == [0.125]
    assert cols["group_size"].tolist() == [4.5]


def test_read_trace_columns_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iteration,n_total\n1,2\n")
    with pytest.raises(ValueError):
        read_trace_columns(path)
