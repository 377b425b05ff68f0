"""Naming game in groups: consensus dynamics on complex networks.

A population of agents on a network repeatedly plays a group conversation
game: a seed node gathers up to N-1 neighbours, everyone speaks, the group
broadcasts a beta*N-word sample of what was said, and agents that hear a
word they already hold collapse their memory to it. The package provides
the three standard topology generators, the game engine (plus the
single-speaker and pairwise baselines), trace metrics, and an experiment
harness with a CLI front end.
"""

__version__ = "0.1.0"

from .engine import (GameParams, Group, PopulationState, RoundOutcome,
                     WeightTable, form_group, minimal_ng_round, ngmh_round,
                     run_group_round, run_to_convergence,
                     select_transmitting_words, speak, transmit_count,
                     transmit_word, word_weights)
from .errors import ConnectivityFailureError, InvalidParamError, NggError
from .harness import (ExperimentConfig, SweepSpec, derive_seed, load_config,
                      parse_config, run_experiment)
from .metrics import (RunSummary, Trace, TraceRecord, aggregate_summaries,
                      average_runs, read_trace_columns, summarize,
                      write_trace_csv)
from .netgen import (Network, NetworkSpec, NetworkStats, compute_stats,
                     generate, is_connected, write_edge_list)

# The README's library API and the building blocks it names.
__all__ = [
    "GameParams", "Group", "PopulationState", "RoundOutcome", "WeightTable",
    "form_group", "minimal_ng_round", "ngmh_round", "run_group_round",
    "run_to_convergence", "select_transmitting_words", "speak",
    "transmit_count", "transmit_word", "word_weights",
    "ConnectivityFailureError", "InvalidParamError", "NggError",
    "ExperimentConfig", "SweepSpec", "derive_seed",
    "load_config", "parse_config", "run_experiment", "RunSummary", "Trace",
    "TraceRecord", "aggregate_summaries", "average_runs",
    "read_trace_columns", "summarize", "write_trace_csv",
    "Network", "NetworkSpec", "NetworkStats", "compute_stats", "generate",
    "is_connected", "write_edge_list",
]
