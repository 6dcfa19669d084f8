"""Fisher information: exact forms, Monte-Carlo estimates, reliability.

Each sample contributes a rank-one score outer product, so an estimate
needs at least dim(theta) distinct samples to be invertible, and its error
decays like 1/sqrt(M).  Reliability is judged by cross-validating two
independent estimates: the mean eigenvalue of F1 F2^{-1} must land in
[1/2, 2].
"""

import numpy as np

from igopt import substream
from igopt.families import BernoulliFamily, JointRbmFamily, SingularFisher, rbm_init
from igopt.fisher import FisherMatrix, exact_fisher, invert, mc_fisher, reliability_check

fam = BernoulliFamily(3)
theta = np.array([0.5, 0.2, 0.7])
exact = exact_fisher(fam, theta)
print("exact Fisher diagonal:", np.diag(exact.matrix))

for m in (100, 1000, 10000):
    est = mc_fisher(fam, theta, m, substream(5, m))
    err = np.linalg.norm(est.matrix - exact.matrix)
    print(f"M = {m:6d}: Frobenius error {err:.4f}")

print("\ninverse of the exact matrix (diagonal):", np.diag(invert(exact)))

# Reliability cross-validation on a freshly initialized RBM: every estimate
# compares the two halves of its batch.  The RBM score is centred on the
# batch mean of its statistics, which the estimate keeps for the step.
rbm = JointRbmFamily(8, 1)
rtheta = rbm_init(8, 1, substream(6, 0)).flat()
est = mc_fisher(rbm, rtheta, 8000, substream(6, 1))
print(f"\nRBM reliability check: {est.reliability} "
      f"(mean eigenvalue {est.mean_eigenvalue:.3f})")

# A deliberately broken pair fails.
f3 = mc_fisher(fam, theta, 2000, substream(6, 3))
f3.matrix *= 3.0
print("scaled estimate vs exact:", reliability_check(f3, exact),
      f"(mean eigenvalue {f3.mean_eigenvalue:.3f})")

# Rank-deficient estimates refuse to invert.
# Three copies of one sample give the mean score outer product g g^T, rank 1.
dup = np.tile(fam.sample(theta, 1, substream(6, 4)), (3, 1))
g = fam.grad_log_density(theta, dup)
bad = FisherMatrix(g.T @ g / 3, "monte_carlo", 3)
try:
    invert(bad)
except SingularFisher as err:
    print("\nsingular estimate rejected:", err)
