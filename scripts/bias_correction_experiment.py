#!/usr/bin/env python3
"""Monte Carlo check of limited-mobility bias and both corrections.

Simulates sparse panels with known effects, estimates, and tabulates how the
plug-in, trace-corrected, and leave-out-corrected firm-effect variances track
the truth, under homoskedastic or firm-size-coupled heteroskedastic noise.
"""

import argparse
import sys

import numpy as np

from twowayfe import (
    SimConfig,
    SolverConfig,
    build_graph,
    correct_homoskedastic,
    correct_leave_out,
    estimate,
    leave_one_out_connected_set,
    restrict_panel,
    simulate_panel,
    truth_components,
)


def one_replication(seed, args):
    noise = (
        dict(noise_kind="homoskedastic", noise_sigma2=args.sigma2)
        if not args.heteroskedastic
        else dict(
            noise_kind="heteroskedastic",
            noise_sigma2_range=(args.sigma2 / 3, args.sigma2 * 3),
            noise_size_coupled=True,
            network="size_skewed",
        )
    )
    cfg = SimConfig(
        n_workers=args.workers,
        n_firms=args.firms,
        n_periods=2,
        var_alpha_true=0.1,
        var_psi_true=args.var_psi,
        corr_sorting=0.1,
        movers_share=args.movers_share,
        seed=seed,
        **noise,
    )
    panel, truth = simulate_panel(cfg)
    loo = leave_one_out_connected_set(build_graph(panel), panel)
    loo_panel = restrict_panel(panel, loo.workers, loo.firms)
    est = estimate(loo_panel, None, SolverConfig(method="conjugate_gradient"))
    ho = correct_homoskedastic(loo_panel, est, "var_psi")
    lo = correct_leave_out(loo_panel, est, "var_psi")
    true_vp = truth_components(truth, loo, panel).components["var_psi"]
    return ho.plug_in, ho.corrected, lo.corrected, true_vp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replications", type=int, default=50)
    parser.add_argument("--workers", type=int, default=3000)
    parser.add_argument("--firms", type=int, default=300)
    parser.add_argument("--movers-share", type=float, default=0.25)
    parser.add_argument("--sigma2", type=float, default=0.05)
    parser.add_argument("--var-psi", type=float, default=0.02)
    parser.add_argument("--heteroskedastic", action="store_true")
    args = parser.parse_args(argv)

    rows = np.array([one_replication(s, args) for s in range(args.replications)])
    plug, homo, leave, truth = rows.T
    print(f"replications: {args.replications}, noise: "
          f"{'heteroskedastic (size-coupled)' if args.heteroskedastic else 'homoskedastic'}")
    print(f"{'estimator':<24}{'mean':>10}{'bias':>10}{'z':>8}")
    for name, vals in (("plug-in", plug), ("trace-corrected", homo), ("leave-out", leave)):
        gap = vals - truth
        se = gap.std(ddof=1) / np.sqrt(len(gap))
        print(f"{name:<24}{vals.mean():>10.5f}{gap.mean():>10.5f}{gap.mean() / se:>8.1f}")
    print(f"{'truth (mean over sets)':<24}{truth.mean():>10.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
