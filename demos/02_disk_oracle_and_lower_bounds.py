"""Exact ball values versus certified lower bounds.

Every positive harmonic function on a ball is a Poisson integral, so the
Harnack distance between two points of a d-ball is known exactly
(`ball_harnack_two_points`, any d); in the disk it is exp of the
hyperbolic (Poincare) distance.  On a general domain
we cannot evaluate it, but subordination still certifies lower bounds:
any ball containing the domain has a *smaller* Harnack distance, so its
exact value bounds ours from below.

The Poisson-witness bound takes the exact two-point value on several
enclosing balls (centred at either point and at their midpoint), witnessed
by the Poisson kernel at one boundary point.

This script checks it against the exact disk and 3-D ball values.
"""

import numpy as np

from harnack import (
    Ball,
    Box,
    ball_harnack_two_points,
    poisson_witness_lower_bound,
)


def main():
    disk = Ball(np.zeros(2), 1.0)
    pairs = [
        ((-0.4, 0.0), (0.4, 0.0)),
        ((0.0, 0.0), (0.7, 0.0)),
        ((-0.3, 0.5), (0.4, -0.2)),
    ]
    print(f"{'pair':>28} {'exact':>10} {'poisson':>10}")
    for x, y in pairs:
        exact = ball_harnack_two_points(x, y, disk.center, disk.radius)
        pois = poisson_witness_lower_bound(disk, x, y)
        print(f"{str((x, y)):>28} {exact:>10.4f} {pois.value:>10.4f}")

    print()
    print("The lower-bound certificates carry their witnesses:")
    cert = poisson_witness_lower_bound(disk, (-0.4, 0.0), (0.4, 0.0))
    print(f"  method  = {cert.method}")
    print(f"  value   = {cert.value:.6f}  (exact value is {49 / 9:.6f})")
    print(f"  witness = {cert.witness}")

    print()
    print("The bound never exceeds the exact value (spot check, 500 pairs each):")
    rng = np.random.default_rng(2)
    for dim in (2, 3):
        ball = Ball(np.zeros(dim), 1.0)
        worst = -np.inf
        for _ in range(500):
            x, y = rng.uniform(-0.85, 0.85, size=(2, dim))
            if max(np.linalg.norm(x), np.linalg.norm(y)) > 0.85:
                continue
            exact = ball_harnack_two_points(x, y, ball.center, ball.radius)
            lo = poisson_witness_lower_bound(ball, x, y).value
            worst = max(worst, lo / exact - 1.0)
        print(f"  d = {dim}: max(lower / exact - 1) = {worst:.3e}  (<= 0 up to roundoff)")

    print()
    print("On a square the witness ball is one of the enclosing balls:")
    square = Box(-np.ones(2), np.ones(2))
    print(f"{'pair':>28} {'poisson':>10} {'radius':>8}")
    for x, y in pairs:
        pois = poisson_witness_lower_bound(square, x, y)
        print(f"{str((x, y)):>28} {pois.value:>10.4f} {pois.witness['radius']:>8.4f}")


if __name__ == "__main__":
    main()
