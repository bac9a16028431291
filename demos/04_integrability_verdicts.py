"""Integrability verdicts: when does a plane field foliate space?

Three detectors combine into one verdict.  A bracket escaping the fibre
refutes integrability outright.  Involutivity plus constant rank, or plus
a polynomial module certificate, confirms it.  In the remaining smooth
singular cases the sampled orbit dimension is compared against the fibre
rank: generator flows can never leave an integral manifold, so an orbit
outrunning the fibre is a refutation invisible to every bracket test.
"""

from fractions import Fraction

from vfkit import VectorField, parse
from vfkit.distributions import Distribution
from vfkit.frobenius import flow_box_chart, frobenius_verdict
from vfkit.orbits import WordSampler


def field(name, comps, n):
    return VectorField(name, tuple(parse(c, n) for c in comps))


def grid(n, step=1):
    rng = [Fraction(k, step) for k in range(-step, step + 1)]
    if n == 2:
        return [(a, b) for a in rng for b in rng]
    return [(a, b, c) for a in rng for b in rng for c in rng]


cases = {
    "shear plane field {d2, d1 + x2 d3}": Distribution(
        (field("X1", ["0", "1", "0"], 3), field("X2", ["1", "0", "x2"], 3))
    ),
    "coordinate plane {d1, d2} in R^3": Distribution(
        (field("X1", ["1", "0", "0"], 3), field("X2", ["0", "1", "0"], 3))
    ),
    "isolated leaf {x1 x3 d1 + d2, d3}": Distribution(
        (field("X1", ["x1*x3", "1", "0"], 3), field("X2", ["0", "0", "1"], 3))
    ),
    "vanishing pair {(x1^2+x2^2) d1, (x1^2+x2^2) d2}": Distribution(
        (field("X1", ["x1^2+x2^2", "0"], 2), field("X2", ["0", "x1^2+x2^2"], 2))
    ),
    "flat pair {d1, bumpp(x1) d2}": Distribution(
        (field("X1", ["1", "0"], 2), field("X2", ["0", "bumpp(x1)"], 2))
    ),
}

boost = WordSampler(seed=11, count=400, max_len=8, max_time=1.5)
for label, D in cases.items():
    samples = grid(D.dim)
    verdict = frobenius_verdict(D, samples, orbit_sampler=boost)
    print(f"{label}:")
    print(f"  integrable: {verdict.integrable}")
    print(f"  {verdict.clause}")
    if verdict.witnesses:
        print(f"  witnesses: {[tuple(map(str, w)) for w in verdict.witnesses[:4]]}"
              + (" ..." if len(verdict.witnesses) > 4 else ""))
    if verdict.invariant_slice_samples and verdict.integrable == "no":
        print(f"  involutivity still holds at "
              f"{len(verdict.invariant_slice_samples)} samples "
              f"(an isolated invariant set)")
    print()

print("flow-box charts for the flat pair (accepted iff an integral "
      "manifold chart is certified):")
flat = cases["flat pair {d1, bumpp(x1) d2}"]
for base in [(-1, 0), (0, 0), (1, 0)]:
    chart = flow_box_chart(flat, base, orbit_sampler=boost)
    print(f"  base {base}: accepted={chart.accepted}"
          + (f" ({chart.rejected_reason})" if chart.rejected_reason else ""))
