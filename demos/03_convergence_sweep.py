"""How the transmission budget and group size shape consensus.

Sweeps beta (words broadcast per round ~ beta*N) and the group size N on a
sparse random graph, then renders the averaged vocabulary trajectories and
the convergence-time trend. Larger groups and fatter broadcast budgets both
collapse the vocabulary dramatically faster.

Run:  python demos/03_convergence_sweep.py        (a few seconds, writes 3 SVGs)
"""

import numpy as np

from ngg.engine import GameParams, run_to_convergence
from ngg.metrics import aggregate_summaries, average_runs
from ngg.netgen import NetworkSpec, generate
from ngg.plotting import render_line_chart

M = 300
REPS = 10
SPEC = NetworkSpec("rg", M, p=0.05)


def sweep_point(params, master):
    traces, summaries = [], []
    for rep in range(REPS):
        rng = np.random.default_rng((master, rep))
        net = generate(SPEC, rng)
        records, summary = run_to_convergence(net, params, rng)
        traces.append(records)
        summaries.append(summary)
    return average_runs(traces, M), aggregate_summaries(summaries)


def save(name, series, **kwargs):
    svg = render_line_chart(series, **kwargs)
    with open(name, "w") as fh:
        fh.write(svg)
    print(f"wrote {name}")


def main():
    print(f"{SPEC.label()} M={M}, {REPS} repetitions per point\n")

    beta_series, cvg_by_beta = [], []
    for beta in (0.1, 0.5, 1.0):
        avg, agg = sweep_point(GameParams(n=20, beta=beta), master=100)
        print(f"beta={beta:<4} N=20  iter_cvg={agg['n_iter_cvg']['mean']:7.1f} "
              f"+/- {agg['n_iter_cvg']['std']:6.1f}   "
              f"n_total_max={agg['n_total_max']['mean']:7.1f}")
        beta_series.append((f"beta={beta}",
                            [r.iteration for r in avg],
                            [r.n_total for r in avg]))
        cvg_by_beta.append((beta, agg['n_iter_cvg']['mean']))
    save("sweep_beta_total.svg", beta_series,
         title="total words held vs iteration",
         xlabel="iteration", ylabel="n_total")

    n_series = []
    for n in (10, 20, 50):
        avg, agg = sweep_point(GameParams(n=n, beta=0.5), master=200)
        print(f"beta=0.5  N={n:<3} iter_cvg={agg['n_iter_cvg']['mean']:7.1f} "
              f"+/- {agg['n_iter_cvg']['std']:6.1f}   "
              f"n_diff_max={agg['n_diff_max']['mean']:7.1f}")
        n_series.append((f"N={n}",
                         [r.iteration for r in avg],
                         [r.n_diff for r in avg]))
    save("sweep_n_diff.svg", n_series,
         title="distinct words vs iteration",
         xlabel="iteration", ylabel="n_diff")

    save("sweep_beta_cvg.svg",
         [("iterations to consensus",
           [b for b, _ in cvg_by_beta], [c for _, c in cvg_by_beta])],
         title="convergence time vs beta", xlabel="beta",
         ylabel="n_iter_cvg", log_y=True)


if __name__ == "__main__":
    main()
