"""Simulate clustered counts and fit by EM and by direct maximization.

The design mirrors the benchmark simulation: q clusters of n_k individuals,
log mean  3.0 - 1.25 x1 + 0.75 x2  with x1 ~ N(3.7, 0.2^2), x2 ~ Bern(0.45),
and dispersion 0.45.  Both names run one fit loop: guarded Newton steps on
the exact observed information, which the EM posterior moments give, with a
modified Newton step where no Newton step can be taken, stopping on one
certificate.  So the two fits agree bit for bit.
"""

import numpy as np

from cpbs import ModelParams, bootstrap_se, direct_ml_fit, em_fit, simulate_dataset

truth = ModelParams(beta=np.array([3.0, -1.25, 0.75]), phi=0.45)
data = simulate_dataset(q=7, n_k=300, params=truth, seed=20240612)
print(f"simulated: q={data.q} clusters, n={data.n} observations")
print("cluster count totals:", [int(c.y.sum()) for c in data.clusters])

em = em_fit(data)
print("\n=== EM fit ===")
print(f"converged in {em.iterations} iterations, loglik {em.loglik:.4f}")
print(f"beta  = {np.round(em.params.beta, 4)}   (truth {truth.beta})")
print(f"phi   = {em.params.phi:.4f}             (truth {truth.phi})")
deltas = np.diff(em.loglik_trace)
print(f"log-likelihood is non-decreasing along the path: {bool(np.all(deltas >= -1e-10))}")

direct = direct_ml_fit(data)
print("\n=== direct fit ===")
print(f"converged: {direct.converged}, loglik {direct.loglik:.4f}")
gap = np.max(np.abs(direct.params.as_array() - em.params.as_array()))
print(f"largest coordinate gap to the EM fit: {gap:.2e}")

print("\n=== parametric-bootstrap standard errors (B=60 for the demo) ===")
se = bootstrap_se(data, "log", em, B=60, seed=7)
names = ["beta0", "beta1", "beta2", "phi"]
est = em.params.as_array()
print(f"{'param':>6} {'estimate':>10} {'se':>8} {'z':>8}")
for name, e, s in zip(names, est, se):
    z = f"{e / s:8.2f}" if name != "phi" else "     --"
    print(f"{name:>6} {e:10.4f} {s:8.4f} {z}")
