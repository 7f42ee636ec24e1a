"""Separation of point pairs, relay chains, and the resulting bounds.

The separation of two interior points x, y is

    q = |x - y| / (clearance(x) + clearance(y)),

i.e. how far the pair is from having overlapping certified balls.  When
q < 1 a single Harnack step applies and yields an explicit bound
growing like (1 - q)^(-2(d-1)); `pair_bound` returns it in two forms,
the stated one and the smaller proof-sharp one.  When q >= 1 no single
step works, but a relay chain of intermediate points can restore q < 1
on every link; the bounds then multiply along the chain, and
`chain_bound` returns both products.

The hop-limited minimax solver finds, on a lattice inside the domain,
the relay chain with at most l links whose worst link separation is
smallest — a certified input for the l-link set bound
2^(2dl) / (1 - q)^((d-1) l).
"""

import numpy as np

from harnack import (
    Ball,
    Lattice,
    chain_bound,
    pair_bound,
    pair_separation,
    set_harnack_bound,
    set_separation,
)


def main():
    disk = Ball(np.zeros(2), 1.0)
    x, y = np.array([-0.4, 0.0]), np.array([0.4, 0.0])

    q = pair_separation(disk, x, y)
    print(f"pair separation q = {q:.6f}")
    stated, proof_sharp = pair_bound(disk, x, y)
    print(f"one-step bound (stated form):      {stated:.4f}")
    print(f"one-step bound (proof-sharp form): {proof_sharp:.4f}")
    print(f"(exact disk value is {49 / 9:.4f})")

    print()
    far = np.array([-0.5, 0.0]), np.array([0.5, 0.0])
    q_far = pair_separation(disk, *far)
    print(f"a harder pair has q = {q_far:.4f} >= 1: the one-step bound is void.")
    relay = [far[0], np.zeros(2), far[1]]
    stated, proof_sharp = chain_bound(disk, relay)
    print(f"through-the-center relay chain bound: {proof_sharp:.4f} (stated form {stated:.4f})")

    print()
    lattice = Lattice(disk, 0.05)
    res = set_separation(lattice, far[0], far[1][None, :], hops=2)
    val, poly = res.per_target[0]
    print(f"minimax solver, 2 hops on a 0.05 grid:")
    print(f"  best worst-link separation {val:.4f} via {np.round(poly, 3).tolist()}")
    print(f"  resulting set bound: {set_harnack_bound(res.value, 2, 2):.4f}")

    print()
    print("More hops never hurt (one lattice serves every query):")
    for hops in (1, 2, 3, 4):
        r = set_separation(lattice, far[0], far[1][None, :], hops)
        print(f"  l = {hops}: worst-link separation {r.value:.4f}")


if __name__ == "__main__":
    main()
