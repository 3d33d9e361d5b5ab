"""Volume ratios of l_p balls and of subspaces of l_p^m.

Among n-dimensional subspaces of L_p, the coordinate space l_p^n has the
largest volume ratio.  This script estimates subspace volume ratios via
Lewis representations and the gauge-integral volume formula, and traces
the L_1 bound toward its dimension-free limit sqrt(2e/pi).
"""
import numpy as np

from voliso import (L1_VR_LIMIT, McParams, SubspaceSpec, l1_vr_bound,
                    lp_ball_volume, lp_ball_volume_ratio)
from voliso.lp_spaces import _lewis_volume_ratio

MC = McParams(sample_count=300_000, seed=9)


def main():
    print("=" * 70)
    print("l_p balls and subspaces of l_p^m")
    print("=" * 70)

    print("\nUnit-ball volumes (closed form):")
    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
        vols = "  ".join(f"n={n}: {lp_ball_volume(n, p):8.4f}" for n in (2, 3, 4))
        print(f"  p={p:<4} {vols}")

    print("\nVolume ratios of the coordinate spaces (reference values):")
    for p in (1.0, 1.5, 2.0, 3.0):
        refs = "  ".join(f"n={n}: {lp_ball_volume_ratio(n, p):.5f}" for n in (2, 3, 4))
        print(f"  p={p:<4} {refs}")

    print("\nRandom subspaces never beat the coordinate space:")
    rng = np.random.default_rng(7)
    for p in (1.0, 1.5, 3.0):
        reference = lp_ball_volume_ratio(2, p)
        print(f"  p={p}: vr(l_p^2) = {reference:.5f}")
        for m in (3, 5, 8):
            spec = SubspaceSpec(rng.standard_normal((m, 2)), p)
            lewis, est = _lewis_volume_ratio(spec, MC)   # one Lewis solve
            system = lewis.gauge.system
            print(f"    random 2-dim subspace of l_p^{m}: vr = {est.value:.5f} "
                  f"+- {est.std_error:.5f}  (Lewis residual {lewis.residual:.1e}, "
                  f"sum c_i = {system.weights.sum():.6f})")

    print("\nThe L_1 volume-ratio bound grows toward sqrt(2e/pi):")
    for n in (1, 2, 3, 5, 10, 25, 50, 100, 200):
        print(f"  n={n:>3}: {l1_vr_bound(n).exact:.6f}")
    print(f"  limit: {L1_VR_LIMIT:.6f}")


if __name__ == "__main__":
    main()
