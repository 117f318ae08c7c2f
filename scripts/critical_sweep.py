#!/usr/bin/env python3
"""Sweep the homotopy solver over base values and seeds.

For each space and seed, one start solve (generic coefficients, as many
critical points as the normalized volume of the Newton polytope) is
tracked to every base value.  Prints the number of critical points found,
the paths that escaped to infinity and the volume, with the spread of
critical values, so drifts in solver behaviour are easy to spot across
configurations.  A certified row has found + escaped = volume.

Usage:
    python3 scripts/critical_sweep.py --starts 900 --seeds 0 1 2 --T0 0.5 0.6
"""

import argparse

import numpy as np

from gcfloer import potential
from gcfloer.numerics import NonConvergenceError
from gcfloer.spaces import SPACES, UNIT


def spaces():
    """Each registered space's potential at the unit profile."""
    return {
        name: potential.build_potential(space.shape, space.profile(UNIT))
        for name, space in SPACES.items()
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--starts", type=int, default=400)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--T0", type=float, nargs="+", default=[0.5, 0.6])
    args = ap.parse_args()

    print(f"{'space':6} {'T0':>5} {'seed':>4} {'found':>5} {'escaped':>7} {'volume':>6} "
          f"{'max_resid':>10} {'|values|':>30}")
    for name, pot in spaces().items():
        for seed in args.seeds:
            configs = [potential.SolverConfig(T0=T0, seed=seed, starts=args.starts)
                       for T0 in args.T0]
            try:
                results = potential.track_critical_points(pot, configs)
            except NonConvergenceError:
                results = [None] * len(configs)
            for cfg, res in zip(configs, results):
                pts = res.points if res else ()
                escaped, volume = (len(res.escaped), res.volume) if res else ("-", "-")
                vals = sorted(abs(potential.evaluate(pot, p.y, cfg.T0)) for p in pts)
                resid = f"{max(p.residual for p in pts):10.2e}" if pts else f"{'-':>10}"
                vals_str = ",".join(f"{v:.4f}" for v in vals)
                print(f"{name:6} {cfg.T0:5.2f} {seed:4d} {len(pts):5d} {escaped:>7} {volume:>6} "
                      f"{resid} {vals_str:>30}")


if __name__ == "__main__":
    main()
