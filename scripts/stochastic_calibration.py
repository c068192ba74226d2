#!/usr/bin/env python3
"""Does a stochastic correction's `mc_stderr` cover its error?

For each of `--seeds` panels of the criterion-8 design (3000 workers, 300
firms, T=2, size-skewed firms, size-coupled heteroskedastic noise; simulator
seeds 0, 1, ...), fits a connected set by conjugate gradient and corrects
var_alpha, var_psi and cov_alpha_psi by `--method` twice, in two
`corrected_decomposition` calls: once exactly and once stochastically at
`--probes` probes (probe seed = simulator seed). The leave-out correction
(the default) runs on the leave-one-out connected set, the homoskedastic
trace on the largest connected set, as the CLI's `pipeline` runs them. Per
component it prints the share of seeds with |stochastic - exact| <=
2 mc_stderr and the mean and RMS of (stochastic - exact) / mc_stderr. A
calibrated error gives about 95%, 0 and 1.
The homoskedastic run also prints each component's median mc_stderr.

    python3 scripts/stochastic_calibration.py --seeds 30 --probes 100
    python3 scripts/stochastic_calibration.py --method homoskedastic_trace

The package is imported from `src/` of the checkout this script sits in.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import twowayfe as tw  # noqa: E402

CRITERION_8 = dict(
    n_workers=3000, n_firms=300, n_periods=2, var_alpha_true=0.1, var_psi_true=0.02,
    corr_sorting=0.1, movers_share=0.25, network="size_skewed",
    noise_kind="heteroskedastic", noise_sigma2_range=(0.01, 0.1), noise_size_coupled=True,
)
# each component, its key in a decomposition and the key's scale
COMPONENTS = {"var_alpha": ("var_alpha", 1.0), "var_psi": ("var_psi", 1.0),
              "cov_alpha_psi": ("cov2", 2.0)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=30)
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--method", choices=("leave_out", "homoskedastic_trace"), default="leave_out")
    args = p.parse_args(argv)

    ratios = {c: [] for c in COMPONENTS}
    stderrs = {c: [] for c in COMPONENTS}
    for seed in range(args.seeds):
        panel, _ = tw.simulate_panel(tw.SimConfig(seed=seed, **CRITERION_8))
        graph = tw.build_graph(panel)
        if args.method == "leave_out":
            conn = tw.leave_one_out_connected_set(graph, panel)
        else:
            conn = tw.largest_connected_set(graph)
        est_panel = tw.restrict_panel(panel, conn.workers, conn.firms)
        est = tw.estimate(est_panel, None, tw.SolverConfig(method="conjugate_gradient"))
        exact = tw.corrected_decomposition(est_panel, est, args.method, "exact")
        stoch = tw.corrected_decomposition(
            est_panel, est, args.method, "stochastic", probes=args.probes, seed=seed
        )
        for c, (key, scale) in COMPONENTS.items():
            se = stoch.mc_stderr[key]
            ratios[c].append((stoch.components[key] - exact.components[key]) / se)
            stderrs[c].append(se / scale)

    print(f"{args.seeds} seeds of the criterion-8 design, {args.probes} probes")
    print(f"{'component':<16}{'|err| <= 2 se':>15}{'mean err/se':>13}{'RMS err/se':>12}")
    for c, r in ratios.items():
        r = np.array(r)
        print(f"{c:<16}{np.mean(np.abs(r) <= 2.0):>14.0%} {r.mean():>12.2f}"
              f"{np.sqrt(np.mean(r * r)):>12.2f}")
    if args.method == "homoskedastic_trace":
        print("median mc_stderr: " + ", ".join(
            f"{c} {np.median(stderrs[c]):.2g}" for c in COMPONENTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
