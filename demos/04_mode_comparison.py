"""Group conversation against its two reference dynamics.

Same network, same seeds, three update rules:

  ngg      every group member speaks and listens each round
  ngmh     the group forms but only the seed speaks one word
  minimal  the classic two-agent game on a random edge

The group conversation reaches consensus far faster per iteration than the
single-speaker variant, and both group modes dwarf the pairwise game, whose
iterations touch only two agents at a time.

Run:  python demos/04_mode_comparison.py        (a few seconds, writes 1 SVG)
"""

import numpy as np

from ngg.engine import GameParams, run_to_convergence
from ngg.metrics import aggregate_summaries, average_runs
from ngg.netgen import NetworkSpec, generate
from ngg.plotting import render_line_chart

M = 300
REPS = 10
SPEC = NetworkSpec("rg", M, p=0.05)
CAP = 400_000


def main():
    series = []
    for mi, mode in enumerate(("ngg", "ngmh", "minimal")):
        params = GameParams(n=20, beta=0.5, mode=mode, max_iterations=CAP)
        traces, summaries = [], []
        for rep in range(REPS):
            rng = np.random.default_rng((mi, rep))
            net = generate(SPEC, rng)
            records, summary = run_to_convergence(net, params, rng)
            traces.append(records)
            summaries.append(summary)
        agg = aggregate_summaries(summaries)
        cvg = agg["n_iter_cvg"]
        print(f"{mode:<8} converged {agg['converged_runs']}/{REPS}  "
              f"iter_cvg={cvg['mean']:9.1f} +/- {cvg['std']:8.1f}")
        n_diff = average_runs(traces, M).arrays()[1]
        series.append((mode, np.arange(1, len(n_diff) + 1), n_diff))

    svg = render_line_chart(series, title="distinct words by update rule",
                            xlabel="iteration", ylabel="n_diff")
    with open("mode_comparison.svg", "w") as fh:
        fh.write(svg)
    print("wrote mode_comparison.svg")


if __name__ == "__main__":
    main()
