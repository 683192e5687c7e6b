"""Tour of the sieve bases: construction, evaluation, and their constants.

Builds one basis per family at a comparable dimension, then prints the
quantities that drive the theory downstream: the sup of the basis-vector
norm (zeta), the smallest Gram eigenvalue under the uniform design
(lambda), the Gram bandwidth, and the sup-norm Lebesgue constant of the
L2 projection.  Note how the local families keep zeta ~ sqrt(K) and a
bounded Lebesgue constant while the polynomial family does not.
"""

import numpy as np

from sievereg import (BasisSpec, GramFactor, build_basis,
                      lebesgue_constant_theoretical, theoretical_gram,
                      uniform_density, zeta_constant)
from sievereg.gram import half_bandwidth

uniform = uniform_density()

specs = [
    ("order-1 spline (histogram)", BasisSpec.bspline(1, 15)),
    ("order-3 spline", BasisSpec.bspline(3, 13)),
    ("order-4 spline", BasisSpec.bspline(4, 12)),
    ("Haar scaling functions", BasisSpec.wavelet(1, 4)),
    ("2-moment boundary wavelets", BasisSpec.wavelet(2, 4)),
    ("trigonometric", BasisSpec.trig(7)),
    ("polynomial (Legendre rep.)", BasisSpec.power(15)),
]

print(f"{'basis':<30} {'K':>4} {'zeta/sqrt(K)':>13} {'lambda':>8} "
      f"{'band':>5} {'Lebesgue':>9}")
for name, spec in specs:
    basis = build_basis(spec)
    gram = theoretical_gram(basis, uniform)
    zeta = zeta_constant(basis)
    print(f"{name:<30} {basis.size:>4} "
          f"{zeta / np.sqrt(basis.size):>13.3f} "
          f"{GramFactor(gram).lam:>8.3f} "
          f"{half_bandwidth(gram):>5d} "
          f"{lebesgue_constant_theoretical(basis, uniform):>9.3f}")

# a couple of pointwise evaluations, exactly reproducing the small oracles
print()
haar = build_basis(BasisSpec.wavelet(1, 2))
print("Haar J=2 at x=0.3          ->", haar.evaluate(0.3))
spl = build_basis(BasisSpec.bspline(2, 2))
print("hat splines (m=2) at x=1/3 ->", spl.evaluate(1 / 3))
print("their gradient at x=0.5    ->", spl.evaluate_gradient(0.5).ravel())

# partition of unity before the sqrt(K) rescaling
xs = np.linspace(0, 1, 2001)
pou = spl.evaluate(xs).sum(axis=1) / np.sqrt(spl.size)
print("partition-of-unity max deviation:", np.max(np.abs(pou - 1.0)))
