"""Multimodal optimization with a one-hidden-unit Boltzmann machine.

The two-min objective has two complementary optima.  An RBM with one hidden
unit is bimodal, and the natural-gradient update tends to keep both modes
alive (mean hidden activation near 1/2, both optima sampled), while the
plain-gradient baseline -- the same loop without the Fisher matrix --
collapses onto a single mode and pins the hidden unit.

This is a scaled-down version of the study in tests/test_acceptance.py
(criterion 11); it runs in under a minute.
"""

from igopt import experiment

COMMON = (
    "family = rbm:n_x=12,n_h=1\n"
    "objective = two_min:d=12,per_run=1\n"
    "scheme = truncation:q0=0.5\n"
    "fisher = mc:m=4000\n"
    "n = 500\nsteps = 60\nseed = 4242\nrepeats = 4\n"
    "stop = both_optima\n"
)


def describe(name, records):
    print(f"\n{name}")
    for rec in records:
        if not rec.rows:
            print(f"  run {rec.run_id}: {rec.status} before the first step")
            continue
        h_path = [row.mean_hidden for row in rec.rows]
        d_path = [row.dist_second for row in rec.rows]
        print(f"  run {rec.run_id}: {rec.status:20s} steps={len(rec.rows):3d} "
              f"mean h {h_path[0]:.2f} -> {h_path[-1]:.2f}  "
              f"dist-to-2nd {d_path[0]:.0f} -> {d_path[-1]:.0f}")


igo = experiment.run_experiment(
    experiment.parse_config(COMMON + "algorithm = igo\ndt = 1.0\n"))
describe("natural gradient (dt = 1):", igo)

vanilla = experiment.run_experiment(
    experiment.parse_config(COMMON + "algorithm = vanilla_gradient\ndt = 4.0\n"
                            "concentration_stop = 5\n"))
describe("plain gradient (dt = 4, concentration stop):", vanilla)

print("\nreading: 'both_optima_reached' with mean h near 1/2 is the bimodal "
      "outcome; 'converged' with mean h pinned near 0/1 lost a mode.")
