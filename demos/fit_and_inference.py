"""Fit a series LS regression and form confidence intervals.

Simulates one sample from the default DGP, fits Haar scaling functions at
the K-rule dimension, and reports plug-in intervals for three functionals:
the value of the regression function at a point, its integral, and the
exponential of its value at a point (a nonlinear functional).  The t
statistics against the simulation truth sit near N(0,1) draws.
"""

import numpy as np

from sievereg import (BasisSpec, DgpSpec, FunctionalSpec, build_basis, fit,
                      functional_report, gen_sample, k_rule, spec_with_size)

n = 4000
dgp = DgpSpec(h0_name="holder", smoothness=1.5)
x, y = gen_sample(dgp, n, seed=7)

k_target = k_rule(n, p=1.0, d=1, c=10.0)  # undersmooth for centered intervals
spec = spec_with_size(BasisSpec.wavelet(1, 4), k_target)
basis = build_basis(spec)
result = fit(basis, x, y)
print(f"n = {n}, K = {basis.size}, design condition = {result.cond:.1f}")

h0 = dgp.h0
functionals = [
    ("h(0.37)", FunctionalSpec.point_eval(0.37),
     float(h0(np.array([[0.37]]))[0])),
    ("integral of h", FunctionalSpec.integral(),
     float(np.mean(h0(np.linspace(0, 1, 200001).reshape(-1, 1))))),
    ("exp(h(0.37))", FunctionalSpec.nonlinear_exp_eval(0.37),
     float(np.exp(h0(np.array([[0.37]]))[0]))),
]

print(f"{'functional':<15} {'truth':>8} {'estimate':>9} {'t':>6}  95% CI")
for name, spec_f, truth in functionals:
    rep = functional_report(result, spec_f, f0=truth)
    print(f"{name:<15} {truth:>8.4f} {rep.fhat:>9.4f} {rep.tstat:>6.2f}  "
          f"[{rep.ci[0]:.4f}, {rep.ci[1]:.4f}]")

# the residual vector is orthogonal to the fitted space
design = basis.evaluate(x)
print("max |B' resid| / ||y|| =",
      float(np.max(np.abs(design.T @ result.residuals)) / np.linalg.norm(y)))
