"""Petty's shadow functional (|C|^{n-1} mean |shadow|^{-n})^{-1/n}: an
affine-invariant spherical mean of shadow areas, minimized by ellipsoids.
"""
import numpy as np

from voliso import McParams, apply_affine, petty_functional
from voliso.shapes import cube_vertices, random_affine_map, regular_polygon

MC = McParams(sample_count=300_000, seed=3)


def main():
    print("=" * 70)
    print("Petty's shadow functional (affine-invariant, minimized by balls)")
    print("=" * 70)
    disc = petty_functional(regular_polygon(720), MC)
    square = petty_functional(cube_vertices(2), MC)
    print(f"  disc (720-gon):  {disc.value:.6f} +- {disc.std_error:.2e}"
          f"   (ball minimum 2/sqrt(pi) = {2 / np.sqrt(np.pi):.6f})")
    print(f"  square:          {square.value:.6f} +- {square.std_error:.2e}")

    print("\n  affine invariance of the square's value:")
    rng = np.random.default_rng(4)
    for index in range(4):
        image = apply_affine(cube_vertices(2), random_affine_map(2, rng, max_shift=0.2))
        est = petty_functional(image, McParams(300_000, seed=10 + index))
        print(f"    random affine image {index}: {est.value:.6f} "
              f"+- {est.std_error:.2e}")


if __name__ == "__main__":
    main()
