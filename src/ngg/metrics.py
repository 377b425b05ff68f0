"""Per-iteration observables, run summaries, and cross-run averaging.

The trace of a run has one entry per completed iteration:

  iteration      1-based round counter
  n_total        sum of all memory sizes across the population
  n_diff         number of distinct words held anywhere
  sr             successful members / group size of this round
  group_size     realised group size of this round
  n_transmitted  words drawn for broadcast, max(1, round(beta*basis)),
                 including draws left unbroadcast once every member has succeeded

A Trace stores the last five as columns; the iteration is the position.
Traces persist as CSV with exactly that header. Averaged traces (one per
experiment point) share the schema but carry float columns; runs shorter
than the longest one are padded with their absorbed state (n_total=M,
n_diff=1, sr=1) so late-iteration means are not biased toward the slow runs.
"""

from __future__ import annotations

import errno
import io
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidParamError

TRACE_FIELDS = ("iteration", "n_total", "n_diff", "sr", "group_size",
                "n_transmitted")


@dataclass(frozen=True)
class TraceRecord:
    """One iteration. A run's trace holds ints in every field but sr; an
    averaged trace holds float means."""

    iteration: int
    n_total: float
    n_diff: float
    sr: float
    group_size: float
    n_transmitted: float


class Trace:
    """A trace as columns: entry i of every column is iteration i + 1.

    `columns` holds n_total, n_diff, sr, group_size, n_transmitted in that
    order. A run's trace grows them as typed arrays (`array('q')` counts,
    `array('d')` for sr) that numpy views without a copy; an averaged trace
    holds float64 arrays. Indexing, slicing and iteration yield TraceRecords;
    two traces are equal when their columns have the same dtypes and values.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Optional[tuple] = None):
        if columns is None:
            columns = tuple(array(code) for code in "qqdqq")
        width = len(TRACE_FIELDS) - 1
        if len(columns) != width or len({len(c) for c in columns}) != 1:
            raise ValueError(
                f"a trace has {width} columns of one length, got "
                f"lengths {[len(c) for c in columns]}")
        self.columns = columns

    def arrays(self) -> tuple:
        """The columns as numpy arrays (views, not copies)."""
        return tuple(np.asarray(c) for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # normalises a negative index, or raises
        return TraceRecord(i + 1, *(c[i] for c in self.columns))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(self.arrays(), other.arrays()))

    def __repr__(self) -> str:
        return f"Trace(<{len(self)} records>)"


@dataclass(frozen=True)
class RunSummary:
    n_total_max: int
    n_diff_max: int
    n_iter_cvg: Optional[int]   # None when the run hit the cap unconverged
    converged: bool
    converged_word: Optional[int]
    iterations: int


def snapshot(pop, outcome, iteration: int) -> TraceRecord:
    """One trace record from the population counters and the round outcome."""
    return TraceRecord(
        iteration=iteration,
        n_total=pop.total_words,
        n_diff=pop.distinct_words,
        sr=outcome.sr,
        group_size=outcome.group_size,
        n_transmitted=len(outcome.transmitted),
    )


def summarize(trace: Trace, converged_word: Optional[int]) -> RunSummary:
    """Collapse a run's trace into its maxima and convergence point.

    converged_word is the consensus word, or None for a run that hit the
    cap. The engine decides convergence and stops at the first converged
    round, so a converged run converged at its last iteration.
    """
    if not len(trace):
        raise InvalidParamError("cannot summarise a run with no iterations")
    n_total, n_diff = trace.arrays()[:2]
    converged = converged_word is not None
    return RunSummary(
        n_total_max=int(n_total.max()),
        n_diff_max=int(n_diff.max()),
        n_iter_cvg=len(trace) if converged else None,
        converged=converged,
        converged_word=converged_word,
        iterations=len(trace),
    )


# ----------------------------------------------------------------------
# Cross-run aggregation
# ----------------------------------------------------------------------


def average_runs(traces: list, m: int) -> Trace:
    """Pointwise mean trace over several runs of the same experiment point.

    Shorter (already converged) runs are padded to the longest length with
    n_total=M, n_diff=1, sr=1; group_size and n_transmitted carry their final
    real value forward so those columns keep a sensible scale. Runs are
    added column by column in the order given, starting from zero, so each
    mean is the same float as a row-by-row sum would give.
    """
    if not traces or any(not len(t) for t in traces):
        raise InvalidParamError("average_runs needs non-empty traces")
    longest = max(len(t) for t in traces)
    sums = [np.zeros(longest) for _ in TRACE_FIELDS[1:]]
    for t in traces:
        n = len(t)
        for acc, col, pad in zip(sums, t.arrays(), (m, 1, 1.0, None, None)):
            acc[:n] += col
            acc[n:] += col[-1] if pad is None else pad
    k = len(traces)
    return Trace(tuple(acc / k for acc in sums))


def _mean_std(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}


def aggregate_summaries(summaries) -> dict:
    """The point statistics of a report row: run counts, and the mean and
    sample standard deviation of each run metric.

    n_iter_cvg covers converged runs only (mean and std are None when none
    converged); capped runs are counted in runs and convergence_rate
    instead of polluting the mean.
    """
    if not summaries:
        raise InvalidParamError("aggregate_summaries needs at least one run")
    cvg = [s.n_iter_cvg for s in summaries if s.n_iter_cvg is not None]
    return {
        "runs": len(summaries),
        "converged_runs": len(cvg),
        "convergence_rate": len(cvg) / len(summaries),
        "n_total_max": _mean_std([s.n_total_max for s in summaries]),
        "n_diff_max": _mean_std([s.n_diff_max for s in summaries]),
        "n_iter_cvg": _mean_std(cvg) if cvg else {"mean": None, "std": None},
    }


# ----------------------------------------------------------------------
# CSV round trip
# ----------------------------------------------------------------------


def make_out_dir(path) -> Path:
    """path as a directory, made if missing; one it cannot make is an error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, a name too long, no permission
        raise InvalidParamError(
            f"cannot make directory {path}: {exc.strerror}") from exc
    return Path(path)


def write_atomic(path, chunks) -> None:
    """Write chunks (a str, or an iterable of str written in order) to path
    through one temporary sibling and os.replace.

    The path holds its old content or all of the new, never a part. A path
    that is a directory or names no place for a file (a name too long, no
    such directory) is an InvalidParamError that leaves no file; on any other
    failure the temporary file is removed and the error propagates.
    """
    path = Path(path)
    if os.path.isdir(path):  # False, not an OSError, for a path it cannot stat
        raise InvalidParamError(f"cannot write {path}: is a directory")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            for chunk in [chunks] if isinstance(chunks, str) else chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if isinstance(exc, OSError) and exc.errno in (  # no place for a file
                errno.ENAMETOOLONG, errno.ENOENT, errno.ENOTDIR):
            raise InvalidParamError(f"cannot write {path}: {exc.strerror}") from exc
        tmp.unlink(missing_ok=True)
        raise


_CSV_BLOCK = 4096  # trace rows formatted and written at a time


def write_trace_csv(trace: Trace, path) -> None:
    """Persist a trace (a run's or an averaged one), atomically, in blocks of
    _CSV_BLOCK rows, so the write's peak does not grow with the trace.

    The format is that of the csv module's default dialect: CRLF line
    ends, ints written with str, floats with their shortest round-trip repr.
    """
    cols, width = trace.arrays(), len(TRACE_FIELDS)
    row = ",".join(["%d", *("%r" if c.dtype.kind == "f" else "%d" for c in cols)])

    def blocks():
        yield ",".join(TRACE_FIELDS) + "\r\n"
        for lo in range(0, len(trace), _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, len(trace))
            cells = [None] * (width * (hi - lo))  # row-major: one % for the block
            cells[::width] = range(lo + 1, hi + 1)
            for j, c in enumerate(cols, 1):
                cells[j::width] = c[lo:hi].tolist()
            yield (row + "\r\n") * (hi - lo) % tuple(cells)

    write_atomic(path, blocks())


def read_trace_columns(path) -> dict:
    """Columns of a trace CSV as float arrays; rejects any schema drift and
    any non-finite value."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        body = fh.read()
    if header != ",".join(TRACE_FIELDS):
        raise ValueError(
            f"{path}: expected trace header {','.join(TRACE_FIELDS)}")
    if body.strip():
        data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                          dtype=np.float64, ndmin=2)
    else:
        data = np.empty((0, len(TRACE_FIELDS)))
    if data.shape[1] != len(TRACE_FIELDS):
        raise ValueError(f"{path}: expected {len(TRACE_FIELDS)} columns per row")
    for i, f in enumerate(TRACE_FIELDS):
        if not np.isfinite(data[:, i]).all():
            raise ValueError(f"{path}: column {f} holds a non-finite value")
    return {f: data[:, i] for i, f in enumerate(TRACE_FIELDS)}
