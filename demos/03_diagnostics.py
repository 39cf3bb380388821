"""Residuals, simulated envelopes, and one-step case-deletion influence.

Pearson residuals standardize each count by the fitted marginal moments;
their distribution is skewed, so the usual normal-quantile plot is read
against envelopes simulated from the fitted model.  The one-step
generalized Cook's distance ranks observations by their leverage on the
coefficients without refitting n times.
"""

import numpy as np

from cpbs import (
    ModelParams,
    em_fit,
    gcd_one_step,
    pearson_residuals,
    posterior_moments,
    simulate_dataset,
    simulated_envelopes,
)

truth = ModelParams(beta=np.array([3.0, -1.25, 0.75]), phi=0.45)
data = simulate_dataset(q=5, n_k=80, params=truth, seed=42)
fit = em_fit(data)
print(f"fit: beta={np.round(fit.params.beta, 3)} phi={fit.params.phi:.3f}")

res = pearson_residuals(data, fit)
print("\n=== Pearson residuals ===")
print(f"mean {res.r.mean():+.4f} (target ~0), variance {res.r.var():.4f} (target ~1)")
print(f"fitted variance exceeds fitted mean everywhere: {bool(np.all(res.sigma2_hat > res.lambda_hat))}")

print("\n=== simulated envelopes (m=60) ===")
bands = simulated_envelopes(data, fit, m=60, seed=9)
print(f"coverage of observed residuals: {bands.coverage:.1%} (≈95% when the model is right)")
print("rank   residual      lo      hi")
n = data.n
for i in [0, n // 4, n // 2, 3 * n // 4, n - 1]:
    print(f"{i + 1:5d} {bands.sorted_r[i]:10.3f} {bands.lo[i]:8.3f} {bands.hi[i]:8.3f}")

print("\n=== one-step generalized Cook's distance ===")
delta = posterior_moments(data, fit.params).delta
infl = gcd_one_step(data, fit, delta)
order = np.argsort(-infl.gcd1)
labels = [data.ids[k] for k in data.cluster_index]
print("top five observations by influence:")
print(f"{'cluster':>8} {'row':>4} {'y':>3} {'gcd1':>9}")
within = np.arange(1, data.n + 1) - data.offsets[data.cluster_index]
for i in order[:5]:
    print(f"{labels[i]:>8} {within[i]:4d} {data.y_stacked[i]:3d} {infl.gcd1[i]:9.4f}")
print("(no numeric cutoff is imposed; ranked values are left to the analyst)")
