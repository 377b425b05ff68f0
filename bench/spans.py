"""Layer spans recorded from outside the program.

The tracer replaces layer functions of `ngg` with timing wrappers at the
names their callers look up (a module attribute, or an entry of
`engine._ROUNDS`), so no file under `src/ngg/` changes. Each call becomes a
span: its name, start, end, the span that caused it (the innermost traced
call still open) and one number the span reports (a return value or a byte
count). Spans sit in flat in-memory columns while a pass runs; `pass_metrics`
reduces them when the pass has ended, and the next `install` drops them.

A span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

ENGINE_PHASES = ("engine.form_group", "engine.speak_all", "engine.word_weights",
                 "engine.select_transmitting_words", "engine.transmit_word")


def _family(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return "netgen.generate." + spec.model


def _idle_broadcast(args, kwargs):
    # transmit_word(word, spoken, group, net, pop, unsuccessful, ...): a call
    # is idle when nobody is left who could hear the word.
    unsuccessful = args[5] if len(args) > 5 else kwargs["unsuccessful"]
    return not unsuccessful


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def layer_targets(engine, metrics, netgen, harness, cli):
    """(owner, name, span name, idle, value) for every traced call site.

    `owner` is the module (or dict) the caller reads the function from. The
    span name may be a function of the arguments. `idle` tests the arguments
    before the call (the call mutates them); `value` turns the arguments and
    the result into the span's number.
    """
    targets = [(engine._ROUNDS, mode, "engine.round", None, None)
               for mode in engine._ROUNDS]
    targets += [
        (engine, "form_group", "engine.form_group", None, None),
        (engine, "_speak_all", "engine.speak_all", None, None),
        (engine, "word_weights", "engine.word_weights", None, None),
        (engine, "select_transmitting_words",
         "engine.select_transmitting_words", None, None),
        (engine, "transmit_word", "engine.transmit_word", _idle_broadcast,
         lambda args, kwargs, result: float(result)),
        (engine, "speak", "engine.speak", None, None),
        (engine, "run_to_convergence", "engine.run_to_convergence", None, None),
        (harness, "run_to_convergence", "engine.run_to_convergence", None, None),
        (metrics, "snapshot", "metrics.snapshot", None, None),
        (metrics, "summarize", "metrics.summarize", None, None),
        (harness, "average_runs", "metrics.average_runs", None, None),
        (harness, "write_trace_csv", "metrics.write_trace_csv", None, _file_bytes),
        (cli, "read_trace_columns", "metrics.read_trace_columns", None, None),
        (cli, "load_config", "harness.load_config", None, None),
        (cli, "run_experiment", "harness.run_experiment", None, None),
        (harness, "generate", _family, None, None),
        (cli, "generate", _family, None, None),
        (netgen, "generate", _family, None, None),
        (netgen, "is_connected", "netgen.is_connected", None, None),
        (cli, "compute_stats", "netgen.compute_stats", None, None),
        (netgen, "all_pairs_distances", "netgen.all_pairs_distances", None, None),
        (cli, "write_edge_list", "netgen.write_edge_list", None, None),
        (cli, "render_line_chart", "plotting.render_line_chart", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    return targets


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


class Tracer:
    """Installs and removes the layer wrappers and holds their spans."""

    def __init__(self, targets):
        self._targets = targets
        self._originals = [_get(owner, name) for owner, name, *_ in targets]
        self._ids: dict = {}
        self.reset()

    def reset(self) -> None:
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._value = array("d")
        self._stack = [-1]
        self.idle_broadcasts = 0

    def _name_id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def _wrap(self, fn, name, idle, value):
        names, starts, ends = self._name, self._start, self._end
        parents, values, stack = self._parent, self._value, self._stack
        clock = time.perf_counter_ns
        fixed_id = None if callable(name) else self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed_id if fixed_id is not None
                         else tracer._name_id(name(args, kwargs)))
            parents.append(stack[-1])
            values.append(0.0)
            ends.append(0)
            if idle is not None and idle(args, kwargs):
                tracer.idle_broadcasts += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if value is not None:
                values[idx] = value(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self.assert_removed()
        self.reset()
        for (owner, name, span, idle, value), fn in zip(self._targets,
                                                        self._originals):
            _set(owner, name, self._wrap(fn, span, idle, value))

    def remove(self) -> None:
        for (owner, name, *_), fn in zip(self._targets, self._originals):
            _set(owner, name, fn)
        self.assert_removed()

    def assert_removed(self) -> None:
        """Raise unless every traced name holds its original function again."""
        for (owner, name, *_), fn in zip(self._targets, self._originals):
            if _get(owner, name) is not fn:
                raise RuntimeError(f"layer wrapper still installed at {name}")

    def pass_metrics(self) -> dict:
        """Reduce the spans of one traced pass to the per-layer metrics.

        Every metric is present, 0 where the pass never reached the layer.
        Engine phase times are microseconds per game iteration, so the phases
        add up to engine.round.us; other times are per call, and counts are
        per pass.
        """
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        value = np.frombuffer(self._value, dtype=np.float64)
        dur = (np.frombuffer(self._end, dtype=np.int64)
               - np.frombuffer(self._start, dtype=np.int64)).astype(np.float64)
        child = parent >= 0
        cover = np.bincount(parent[child], weights=dur[child],
                            minlength=len(dur))
        parent_name = np.full(len(name), -1, dtype=np.int32)
        parent_name[child] = name[parent[child]]

        def mask(span):
            return name == self._ids.get(span, -1)

        def mean(arr, m):
            return float(arr[m].mean()) if m.any() else 0.0

        def ms(span):
            return mean(dur, mask(span)) / 1e6

        rounds = mask("engine.round")
        n_rounds = int(rounds.sum())

        def per_round_us(span):
            return float(dur[mask(span)].sum()) / n_rounds / 1e3 if n_rounds else 0.0

        generate = np.zeros(len(name), dtype=bool)
        for span, i in self._ids.items():
            if span.startswith("netgen.generate."):
                generate |= name == i
        by_harness = generate & (parent_name == self._ids.get(
            "harness.run_experiment", -2))
        transmit = mask("engine.transmit_word")
        n_transmit = int(transmit.sum())
        round_dur = float(dur[rounds].sum())

        out = {
            "engine.round.us": per_round_us("engine.round"),
            "engine.round.calls": n_rounds,
            "engine.transmit_word.calls": n_transmit,
            "engine.transmit_word.idle_frac": (
                self.idle_broadcasts / n_transmit if n_transmit else 0.0),
            "engine.transmit_word.succ_per_call": mean(value, transmit),
            "engine.speak.us": per_round_us("engine.speak"),
            "engine.phase_coverage": (
                float(cover[rounds].sum()) / round_dur if round_dur else 0.0),
            "metrics.snapshot.us": ms("metrics.snapshot") * 1e3,
            "metrics.summarize.ms": ms("metrics.summarize"),
            "metrics.average_runs.ms": ms("metrics.average_runs"),
            "metrics.write_trace_csv.ms": ms("metrics.write_trace_csv"),
            "metrics.write_trace_csv.bytes": mean(
                value, mask("metrics.write_trace_csv")),
            "metrics.read_trace_columns.ms": ms("metrics.read_trace_columns"),
            "harness.run_experiment.self_s": mean(
                dur - cover, mask("harness.run_experiment")) / 1e9,
            "harness.generate.ms": mean(dur, by_harness) / 1e6,
            "netgen.is_connected.calls_per_network": (
                int(mask("netgen.is_connected").sum()) / int(generate.sum())
                if generate.any() else 0.0),
            "netgen.compute_stats.ms": ms("netgen.compute_stats"),
            "netgen.all_pairs_distances.ms": ms("netgen.all_pairs_distances"),
            "netgen.write_edge_list.ms": ms("netgen.write_edge_list"),
            "plotting.render_line_chart.ms": ms("plotting.render_line_chart"),
            "cli.self_ms": mean(dur - cover, mask("cli.main")) / 1e6,
        }
        for phase in ENGINE_PHASES:
            out[phase + ".us"] = per_round_us(phase)
        for family in ("rg", "ws", "ba"):
            out[f"netgen.generate.{family}.ms"] = ms(f"netgen.generate.{family}")
        return out
