"""Maximal inscribed ellipsoids, John position, and contact decompositions.

Solves the log-det program for a few bodies, extracts contact points, and
solves for the weights that make the contacts resolve the identity.  The
contacts and weights come back as a BLSystem, the same type the
Brascamp-Lieb estimator and the l_p gauges take.
"""
import numpy as np

from voliso import (apply_affine, contact_points, john_decomposition,
                    john_position, max_inscribed_ellipsoid, volume_ratio)
from voliso.shapes import cube, random_affine_map, random_polytope, regular_simplex

np.set_printoptions(precision=6, suppress=True)


def describe(name, body, symmetric):
    print(f"\n--- {name} ({body.num_facets} facets, n={body.dim}) ---")
    ellipsoid, info = max_inscribed_ellipsoid(body, full_output=True)
    print(f"shape matrix:\n{ellipsoid.shape}")
    print(f"center: {ellipsoid.center}")
    print(f"volume: {ellipsoid.volume:.6f}   KKT residual: {info.kkt_residual:.2e}   "
          f"Newton iterations: {info.newton_iterations}")
    image, transform = john_position(body)
    contacts = contact_points(image)
    decomposition = john_decomposition(contacts, symmetric=symmetric)
    print(f"{len(contacts)} contact points; weights: {decomposition.weights}")
    print(f"identity residual: {decomposition.frobenius_residual():.2e}   "
          f"sum of weights: {decomposition.weights.sum():.6f} (= n)")
    if not symmetric:
        print(f"barycenter norm: {decomposition.barycenter_norm():.2e}")
    print(f"volume ratio: {volume_ratio(body):.6f}")


def main():
    print("=" * 70)
    print("John ellipsoids and identity decompositions")
    print("=" * 70)

    describe("cube [-1,1]^3", cube(3), symmetric=True)
    describe("regular triangle, unit inradius", regular_simplex(2), symmetric=False)

    rng = np.random.default_rng(42)
    body = random_polytope(2, rng)
    skewed = apply_affine(body, random_affine_map(2, rng, max_shift=0.3))
    describe("random polygon, random affine image", skewed, symmetric=False)

    print("\nAffine invariance of the volume ratio:")
    print(f"  vr(body)        = {volume_ratio(body):.8f}")
    print(f"  vr(affine image) = {volume_ratio(skewed):.8f}")


if __name__ == "__main__":
    main()
