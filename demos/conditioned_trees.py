"""Sampling family trees conditioned on surviving a defective pass.

Conditioning on survival is awkward to sample naively once survival is
rare: rejection throws almost everything away.  The spine construction
builds the conditioned tree directly, one surviving line of descent
dressed with side subtrees whose broods are drawn from their exact
conditioned laws, with no retries.  For a small binary-split
case the conditioned law can be enumerated exactly, so all three
routes (enumeration, construction, rejection) can be compared atom by
atom.
"""
from __future__ import annotations

import numpy as np

from defbranch import (
    Constant,
    FiniteSupport,
    enumerate_conditioned,
    sample_conditioned,
    serialize_tree,
    spine_dist,
    tree_stats,
    validate_prop4,
)

ENV = Constant(FiniteSupport([0.45, 0.0, 0.45]))
N = 2


def exact_atoms() -> None:
    law = enumerate_conditioned(ENV, N)
    print(f"exact conditioned law at horizon {N} "
          f"({law.atom_count} trees, survival {law.survival_mass:.6f})")
    for tree, p in sorted(law.atoms.items(), key=lambda kv: -kv[1]):
        flat = tree.replace("\n", "  ")
        print(f"  p = {p:.6f}   {flat}")


def spine_weights() -> None:
    print("\nspine step weights (spine rank d within a brood of c, by depth):")
    for l in range(1, N + 1):
        sd = spine_dist(ENV, l, N)
        pairs = ", ".join(
            f"d={d} of c={c}: {p:.4f}" for d, c, p in zip(sd.d, sd.c, sd.prob)
        )
        print(f"  depth {l}: {pairs}")


def draw_some(seed: int) -> None:
    rng = np.random.default_rng(seed)
    print("\nfive draws from the spine construction:")
    for _ in range(5):
        tree, spine = sample_conditioned(ENV, N, rng)
        st = tree_stats(tree, N)
        print(f"  gen sizes {st.gen_sizes}  spine labels {spine.labels}"
              f"  serialized: {serialize_tree(tree).replace(chr(10), '  ')}")


def three_way_agreement(seed: int) -> None:
    rep = validate_prop4(ENV, N, samples=100_000, master_seed=seed)
    print(f"\nthree-way agreement at {rep.samples} samples "
          f"({rep.atom_count} atoms, complete enumeration: {rep.complete_enumeration})")
    print(f"  construction vs exact  TV {rep.tv_construction_exact:.5f}")
    print(f"  rejection    vs exact  TV {rep.tv_rejection_exact:.5f}")
    print(f"  construction vs reject TV {rep.tv_construction_rejection:.5f}")
    print(f"  threshold {rep.threshold:.5f}  ->  {'pass' if rep.passed else 'FAIL'}")


if __name__ == "__main__":
    exact_atoms()
    spine_weights()
    draw_some(11)
    three_way_agreement(11)
