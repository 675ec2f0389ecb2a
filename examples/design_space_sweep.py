#!/usr/bin/env python
"""Walk the paper's design space: Fig. 3 and Fig. 4 as terminal charts.

Reproduces §III's study: the cluster-size trade-off for consecutive-rank
clusters (message logging vs recovery vs encoding time) and the
distribution study (reliability / logging / restart, distributed vs
non-distributed) — ending with the observation that motivates the
hierarchical design: every flat clustering fails at least one dimension.

Run:
    python examples/design_space_sweep.py
"""

from repro.core import (
    ascii_bars,
    experiment_fig3,
    experiment_fig4a,
    experiment_fig4bc,
    paper_scenario,
)


def main() -> None:
    scenario = paper_scenario(iterations=100)

    print("=" * 72)
    print("Fig. 3 — cluster-size study (consecutive-rank clusters)")
    print("=" * 72)
    study = experiment_fig3(scenario)
    print(study.render())
    print()
    print("Message-logging overhead by cluster size:")
    print(
        ascii_bars(
            [str(s) for s in study.sizes],
            [100 * f for f in study.logged_fraction],
            unit="%",
        )
    )
    print()
    print("Encoding time by cluster size (log scale, like Fig. 3b):")
    print(
        ascii_bars(
            [str(s) for s in study.sizes],
            study.encoding_s_per_gb,
            unit=" s/GB",
            log_scale=True,
        )
    )
    print(f"\nFig. 3a sweet spot (logging vs recovery): "
          f"{study.sweet_spot_3a()} processes — the paper picks 32.")

    print()
    print("=" * 72)
    print("Fig. 4a — reliability, distributed vs non-distributed (128 x 8)")
    print("=" * 72)
    rel = experiment_fig4a(sizes=(4, 8, 16))
    print(rel.render())
    print("\nNon-distributed clusters are orders of magnitude less reliable —")
    print("for sizes 4 and 8 a single node failure is already catastrophic.")

    print()
    print("=" * 72)
    print("Fig. 4b/4c — logging and restart cost of distribution (64 x 16)")
    print("=" * 72)
    dist = experiment_fig4bc(scenario, sizes=(4, 8, 16, 32))
    print(dist.render())
    idx32 = dist.sizes.index(32)
    print(f"\nAt 32-process clusters, distribution lifts the restart cost from "
          f"{100 * dist.restart_non_distributed[idx32]:.0f} % to "
          f"{100 * dist.restart_distributed[idx32]:.0f} % (Fig. 4c), and "
          f"logging to {100 * dist.logging_distributed[idx32]:.0f} %.")
    print("\nConclusion of §III, asserted over 39 configurations by")
    print("tests/paper/test_extensions.py::TestDesignSpace: every flat clustering")
    print("(naive and size-guided at 4-256 processes, distributed at 4-64 nodes)")
    print("breaks the baseline on at least one dimension, and no configuration")
    print("dominates hierarchical-64-4 (as good on all four, better on one) —")
    print("hence the hierarchical design of §IV.")


if __name__ == "__main__":
    main()
