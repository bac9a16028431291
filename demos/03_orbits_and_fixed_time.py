"""Orbits and fixed-time orbits, sampled with seeded flow words.

Two diagonal scalings partition the plane into nine orbits (the origin,
four half-axes, four open quadrants).  Restricting to words of zero net
time shrinks each quadrant orbit to a hyperbola x1*x2 = c: the product is
preserved because each flow scales one coordinate by e^t.
"""

from fractions import Fraction

import numpy as np

from vfkit import DomainPredicate, VectorField, parse
from vfkit.fields import FlowError, apply_words
from vfkit.orbits import WordSampler, fixed_time_dimension, orbit_dimension, zero_sum_words


def field(name, comps, n):
    return VectorField(name, tuple(parse(c, n) for c in comps))


family = [field("X1", ["x1", "0"], 2), field("X2", ["0", "x2"], 2)]
points = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)]

print("orbit dimensions (nine representative points):")
for i, p in enumerate(points):
    rep = orbit_dimension(family, p, WordSampler(seed=i, count=200))
    print(f"  {str(p):10s} dim {rep.dimension}  (bracket rank {rep.linf_rank})")


def zero_sum_images(rep, seed):
    """Where 200 seeded zero-sum words take the point that rep reached."""
    words = zero_sum_words(WordSampler(seed=seed, count=200).words(len(family)))
    return [q for q in apply_words(family, words, [rep.reached] * len(words))
            if not isinstance(q, FlowError)]


print("\nfixed-time orbit through (1,1) at T=0:")
rep = fixed_time_dimension(family, (1, 1), 0.0, WordSampler(seed=42))
product = parse("x1*x2", 2)
drift = max(abs(product.eval_float(q) - product.eval_float(rep.reached))
            for q in zero_sum_images(rep, 42))
print(f"  dimension {rep.dimension} ({rep.certificate}; the hyperbola x1*x2 = 1)")
print(f"  x1*x2 drift across 200 zero-sum words: {drift:.2e}")
print(f"  orbit dimension {rep.orbit_dimension_at_reached} -> gap "
      f"{rep.dimension_gap} (always 0 or 1)")

print("\nfixed-time orbit through the axis point (1,0):")
rep = fixed_time_dimension(family, (1, 0), 0.5, WordSampler(seed=42))
displacement = max(float(np.max(np.abs(q - rep.reached))) for q in zero_sum_images(rep, 42))
print(f"  dimension {rep.dimension} ({rep.certificate}), zero-sum displacement up to "
      f"{displacement:.3f}")
print("  (words may idle on the vanishing vertical field while the "
      "horizontal scaling runs, so the fixed-time orbit is the half-axis, "
      "not a singleton)")

# a family of partially defined fields: the orbit dimension drops where
# the horizontal translation switches off
partial = [
    VectorField("X1", (parse("1", 2), parse("0", 2)),
                DomainPredicate(((1, "<", Fraction(1)),))),
    VectorField("X2", (parse("0", 2), parse("1", 2)),
                DomainPredicate(((1, ">", Fraction(-1)),))),
]
print("\npartially defined translations:")
for p in [(0, 0), (2, 0)]:
    rep = orbit_dimension(partial, p, WordSampler(seed=7, count=150))
    print(f"  at {p}: dim {rep.dimension} "
          f"({rep.words_skipped} of {rep.words_used + rep.words_skipped} walked words "
          "exited a domain)")
