"""The Pitman chain and the law of large numbers.

The chain of Pitman transforms along a reduced word of the longest element
maps the free walk to the chamber walk in law: verified here exactly (total
variation 0 to machine precision) by pushing the free letter law one letter
at a time through the chain's causal states (endpoint and one running-minimum
gap per stage), which equals enumerating all |B|^n words; then illustrated by
simulating a long conditioned walk whose empirical drift matches the target.
"""

import numpy as np

from weylwalks import (
    build_root_system,
    central_measure,
    lln_check,
    pitman_chain,
    pitman_equality_in_law,
    sample_trajectory,
    weight,
)
from weylwalks.paths import make_path


def main():
    a1 = build_root_system("A", 1)
    print("one Pitman transform, A1: the dip-and-return path")
    p = make_path([(1, (-1,)), (1, (1,))])
    out = pitman_chain(a1, p)
    print(f"  increments (-w1, +w1) -> endpoint {tuple(map(str, out.endpoint()))}")

    a2 = build_root_system("A", 2)
    delta = weight((1, 0))
    print("\nexact equality in law (free walk pushed through the chain):")
    for tok, cartan, d, n_max in [("A1", a1, weight((1,)), 6),
                                  ("A2", a2, delta, 4)]:
        for m in [(0.0,) * cartan.rank, tuple(0.1 for _ in range(cartan.rank))]:
            tvs = [pitman_equality_in_law(cartan, d, m, n)
                   for n in range(1, n_max + 1)]
            print(f"  {tok}, m = {m}: max TV over n <= {n_max} is {max(tvs):.2e}")

    print("\nlaw of large numbers for the chamber walk, A2, m = (0.25, 0.15):")
    meas = central_measure(a2, delta, "chamber", (0.25, 0.15))
    report = lln_check(meas, steps=5000, reps=3, seed=11)
    print(f"  target drift     {tuple(round(x, 6) for x in report.target_drift)}")
    print(f"  empirical drift  {tuple(round(x, 6) for x in report.empirical_drift)}")
    print(f"  max deviation    {report.max_deviation:.4f} "
          f"(threshold {report.threshold})")

    traj = sample_trajectory(meas, 12, seed=3)
    print("\nfirst steps of one trajectory (positions stay dominant):")
    for k, pos in enumerate(traj.positions):
        print(f"  step {k:2d}: {tuple(map(str, pos))}")


if __name__ == "__main__":
    main()
