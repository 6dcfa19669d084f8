"""The step engines and how they relate.

One natural-gradient step moves the distribution parameters along the
Fisher-preconditioned weighted score.  In expectation coordinates the same
move is a linear blend toward the weighted statistics of the sample, which
is also what the smoothed cross-entropy method does there -- the three
engines coincide.  At step size 1 they all collapse onto the plain weighted
maximum-likelihood jump.
"""

import numpy as np

from igopt import (
    cem_step,
    compute_quantile_weights,
    igo_ml_step,
    igo_step,
    smoothed_cem_step,
    substream,
    truncation,
)
from igopt.families import BernoulliFamily, FullGaussianFamily, GaussianParams

rng = substream(2024, 0)

# --- Bernoulli bits: probabilities are the expectation parameters ---------
fam = BernoulliFamily(4)
theta = np.array([0.5, 0.5, 0.5, 0.5])
samples = fam.sample(theta, 24, rng)
values = (4 - samples.sum(axis=1)).astype(float)  # count the zeros
weights = compute_quantile_weights(values, truncation(0.5)).normalized()

dt = 0.3
a = igo_step(fam, theta, samples, weights, dt)
b = igo_ml_step(fam, theta, samples, weights, dt)
c = smoothed_cem_step(fam, theta, samples, weights, dt, "expectation")
print("natural-gradient step:", np.round(a, 6))
print("ML-blend step        :", np.round(b, 6))
print("smoothed CEM step    :", np.round(c, 6))
print("max pairwise gap     :", max(np.abs(a - b).max(), np.abs(b - c).max()))

# --- 1-D Gaussian: where the blends differ ---------------------------------
gfam = FullGaussianFamily(1)
gtheta = gfam.pack(GaussianParams(np.zeros(1), np.eye(1)))
gsamples = np.array([[0.8], [1.2]])   # elite mean 1, elite variance 0.04
w = np.array([0.5, 0.5])

ml = gfam.unpack(igo_ml_step(gfam, gtheta, gsamples, w, 0.5))
sc = gfam.unpack(smoothed_cem_step(gfam, gtheta, gsamples, w, 0.5, "natural"))
print("\nML blend in expectation coordinates: mean %.3f, variance %.3f" %
      (ml.m[0], ml.C[0, 0]))
print("smoothed CEM in (mean, variance)   : mean %.3f, variance %.3f" %
      (sc.m[0], sc.C[0, 0]))
print("the mean/variance blend loses the cross term dt (1 - dt) (m* - m)^2")

# --- step size 1: the maximum-likelihood jump -------------------------------
full = gfam.unpack(igo_ml_step(gfam, gtheta, gsamples, w, 1.0))
jump = gfam.unpack(cem_step(gfam, gsamples, np.array([1.0, 2.0]), 1.0))
print("\nfull ML jump:", full.m[0], full.C[0, 0], "== cem:", jump.m[0], jump.C[0, 0])
