"""The normalized Brascamp-Lieb inequality, numerically.

For unit vectors u_i and weights c_i with sum c_i u_i (x) u_i = I, the
integral of prod f_i(<u_i, x>)^{c_i} never exceeds prod (int f_i)^{c_i}.
Equality holds for orthonormal directions, for identical centered
Gaussians, and for the exponential densities on the cone lifted from the
regular simplex geometry.
"""
import numpy as np

from voliso import BLSystem, Density1D, McParams, bl_ratio, lift_to_cone
from voliso.brascamp_lieb import random_system

MC = McParams(sample_count=500_000, seed=1)


def show(label, system, densities):
    est = bl_ratio(system, densities, MC)
    flag = "=" if abs(est.value - 1.0) <= 3 * est.std_error else "<"
    print(f"  {label:44s} ratio = {est.value:.4f} +- {est.std_error:.4f}  [{flag} 1]")


def triangle_system():
    ang = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    return BLSystem(np.stack([np.cos(ang), np.sin(ang)], axis=1), [2 / 3] * 3)


def main():
    print("=" * 70)
    print("Brascamp-Lieb ratios (LHS / RHS; always <= 1)")
    print("=" * 70)

    print("\nEquality cases:")
    show("orthonormal directions, mixed densities",
         BLSystem(np.eye(2), [1.0, 1.0]),
         [Density1D.exponential(), Density1D.indicator(-1.0, 2.0)])
    system = random_system(3, 6, 5)
    show("random valid system, identical Gaussians",
         system, [Density1D.gaussian(1.0)] * 6)

    print("\nStrict inequality:")
    show("triangle directions, indicator densities",
         triangle_system(), [Density1D.indicator(-1.0, 1.0)] * 3)
    show("random valid system, mixed densities",
         system, [Density1D.exponential(), Density1D.gaussian(0.7),
                  Density1D.indicator(-1.0, 1.0), Density1D.exponential(),
                  Density1D.gaussian(1.4), Density1D.indicator(-0.5, 2.0)])

    print("\nCone lifting (centered system in R^2 -> system in R^3):")
    lifted = lift_to_cone(triangle_system())
    print(f"  lifted identity residual: {lifted.frobenius_residual():.2e}, "
          f"sum of weights: {lifted.weights.sum():.6f}")
    show("lifted triangle, exponential densities", lifted,
         [Density1D.exponential()] * 3)
    print("  (the lifted exponential product integrates the extremal cone"
          " exactly, hence equality)")


if __name__ == "__main__":
    main()
