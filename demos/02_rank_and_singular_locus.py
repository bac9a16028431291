"""Pointwise rank, sampled regular/singular classification, and the
polynomial singular locus cut out by minors of the generator matrix."""

from fractions import Fraction

from vfkit import VectorField, parse
from vfkit.distributions import (
    Distribution,
    classify_grid,
    rank_at,
    singular_locus_minors,
)


def field(name, comps, n):
    return VectorField(name, tuple(parse(c, n) for c in comps))


D = Distribution((field("X1", ["x1", "0"], 2), field("X2", ["0", "x2"], 2)))

print("rank of span{x1*d1, x2*d2}:")
for p in [(0, 0), (1, 0), (0, -2), (1, 1)]:
    rep = rank_at(D, p)
    print(f"  at {p}: rank {rep.rank} ({rep.method}), basis generators {rep.witness}")

vals = [Fraction(k, 4) for k in range(-4, 5)]
gc = classify_grid(D, {1: vals, 2: vals})
singular = [p for p, reg in zip(gc.points, gc.regular) if not reg]
print(f"\nsampled-singular points on the grid: {len(singular)} "
      f"(all on the axes: {all(p[0] == 0 or p[1] == 0 for p in singular)})")
print(f"regular density: {gc.regular_density:.3f}")

locus = singular_locus_minors(D)
print(f"\ngeneric rank {locus.generic_rank}; "
      f"singular locus = common zeros of {[str(m) for m in locus.minors]}")
