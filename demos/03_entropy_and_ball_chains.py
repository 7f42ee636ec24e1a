"""Linear-connectivity entropy: hull bounds, grid estimates, ball chains.

The entropy of linear connectivity of a finite set S inside a domain D
is the worst, over pairs of S, of the best achievable ratio

    (length of a connecting polyline) / (its clearance from the boundary).

Two certified upper estimates are available:

* a hull bound: diameter of S over the certified clearance of its
  segmental hull, the union of the segments between its points;
* a grid estimate: shortest polylines on a clearance-filtered lattice
  graph, swept over a geometric ladder of clearance levels.

Any finite upper estimate C can be turned into an explicit chain of
equal-radius balls joining a pair of S, with consecutive centers no
further apart than half the radius and at most 2C intermediate hops.
That chain is exactly the object that powers Harnack-type bounds
(3 * 2^(d-2))^(2*eac + 1).
"""

import numpy as np

from harnack import (
    Ball,
    Lattice,
    build_ball_chain,
    eac_estimate,
    eac_harnack_bound,
    eac_hull_bound,
)


def main():
    disk = Ball(np.zeros(2), 1.0)
    pts = np.array([[-0.5, 0.0], [0.5, 0.0]])

    hull = eac_hull_bound(disk, pts, resolution=1e-3)
    est = eac_estimate(Lattice(disk, 0.02), pts)
    print(f"hull bound (segmental):   {hull:.4f}")
    print(f"grid estimate:            {est.value:.4f}   (true value is 2)")

    rec = est.pair_record(pts[0], pts[1])
    print(f"witness polyline length:  {rec.polyline.shape[0]} vertices")
    print(f"witness clearance:        {rec.clearance:.4f}")

    print()
    budget = est.value + 0.05
    chain = build_ball_chain(disk, pts[0], pts[1], budget, est)
    gaps = np.linalg.norm(np.diff(chain.centers, axis=0), axis=1)
    print(f"ball chain for budget C = {budget:.4f}:")
    print(f"  balls: {chain.centers.shape[0]}, radius {chain.radius:.4f}, hops {chain.hops}")
    print(f"  max center gap {gaps.max():.4f} <= radius/2 = {chain.radius / 2:.4f}")
    print(f"  hops {chain.hops} <= 2C = {2 * budget:.2f}")

    print()
    sharp, rounded = eac_harnack_bound(est.value, 2)
    print("Harnack distance bound from the entropy estimate (d = 2):")
    print(f"  sharp form:   {sharp:.4f}")
    print(f"  rounded form: {rounded:.4f}")


if __name__ == "__main__":
    main()
