from fractions import Fraction

import numpy as np
import pytest

from vfkit.distributions import (
    Distribution,
    adapt_generators,
    classify_grid,
    invariance_check,
    rank_at,
    singular_locus_minors,
)
from vfkit.expr import EvalError, parse
from vfkit.fields import multiply_field

from conftest import frac_grid


@pytest.fixture
def diag(vf):
    return Distribution((vf("X1", ["x1", "0"], 2), vf("X2", ["0", "x2"], 2)))


@pytest.fixture
def flat_pair(vf):
    return Distribution((vf("X1", ["1", "0"], 2), vf("X2", ["0", "bumpp(x1)"], 2)))


class TestRankAt:
    def test_diag_ranks(self, diag):
        assert rank_at(diag, (0, 0)).rank == 0
        assert rank_at(diag, (1, 0)).rank == 1
        assert rank_at(diag, (1, 1)).rank == 2

    def test_exact_method_on_rationals(self, diag):
        rep = rank_at(diag, (Fraction(1, 3), Fraction(-2, 7)))
        assert rep.method == "exact-rational"
        assert rep.rank == 2

    def test_flat_pair_mixed_methods(self, flat_pair):
        left = rank_at(flat_pair, (-1, 0))
        right = rank_at(flat_pair, (1, 0))
        assert (left.rank, right.rank) == (1, 2)
        assert left.method == "exact-rational"  # flat value is exactly zero
        assert right.method == "svd-tolerance"

    def test_vanishing_generator(self, vf):
        D = Distribution((vf("a", ["1", "0"], 2), vf("b", ["0", "x1"], 2)))
        assert rank_at(D, (0, 5)).rank == 1

    def test_witness_indices(self, vf):
        D = Distribution((vf("a", ["0", "0"], 2), vf("b", ["1", "0"], 2)))
        rep = rank_at(D, (0, 0))
        assert rep.witness == (1,)

    def test_partial_generators_excluded(self, vf):
        D = Distribution(
            (
                vf("a", ["1", "0"], 2, [(1, "<", Fraction(1))]),
                vf("b", ["0", "1"], 2, [(1, ">", Fraction(-1))]),
            )
        )
        rep = rank_at(D, (2, 0))
        assert rep.rank == 1
        assert rep.excluded == (0,)

    def test_no_generator_defined(self, vf):
        D = Distribution((vf("a", ["1"], 1, [(1, "<", Fraction(0))]),))
        with pytest.raises(ValueError):
            rank_at(D, (1,))


class TestGrid:
    def test_diag_singular_on_axes(self, diag):
        axes = {1: frac_grid(-1, 1, 4), 2: frac_grid(-1, 1, 4)}
        gc = classify_grid(diag, axes)
        for p, reg in zip(gc.points, gc.regular):
            on_axis = p[0] == 0 or p[1] == 0
            assert reg == (not on_axis)

    def test_constant_rank_all_regular(self, vf):
        D = Distribution((vf("a", ["1", "0"], 2),))
        gc = classify_grid(D, {1: frac_grid(-1, 1, 2), 2: frac_grid(-1, 1, 2)})
        assert all(gc.regular)
        assert gc.regular_density == 1.0

    def test_shear_singular_line(self, vf):
        D = Distribution((vf("a", ["1", "0"], 2), vf("b", ["0", "x1"], 2)))
        gc = classify_grid(D, {1: frac_grid(-1, 1, 4), 2: frac_grid(-1, 1, 4)})
        for p, reg in zip(gc.points, gc.regular):
            assert reg == (p[0] != 0)


class TestMinors:
    def test_shear_minor(self, vf):
        D = Distribution((vf("a", ["1", "0"], 2), vf("b", ["0", "x1"], 2)))
        locus = singular_locus_minors(D)
        assert locus.generic_rank == 2
        assert [str(m) for m in locus.minors] == ["x1"]

    def test_full_rank_constant_minor(self, vf):
        D = Distribution((vf("a", ["1", "0"], 2), vf("b", ["0", "1"], 2)))
        locus = singular_locus_minors(D)
        assert locus.generic_rank == 2
        assert [str(m) for m in locus.minors] == ["1"]

    def test_radial_pair_minor(self, vf):
        D = Distribution(
            (vf("a", ["x1^2+x2^2", "0"], 2), vf("b", ["0", "x1^2+x2^2"], 2))
        )
        locus = singular_locus_minors(D)
        assert locus.generic_rank == 2
        assert [str(m) for m in locus.minors] == [str(parse("(x1^2+x2^2)^2", 2))]

    def test_rejects_flat_generators(self, flat_pair):
        with pytest.raises(ValueError):
            singular_locus_minors(flat_pair)

    def test_rejects_restricted_domains(self, vf):
        # rank_at drops X1 where x1 >= 1/10; the full-matrix minor x1 does not
        D = Distribution(
            (vf("X1", ["1", "0"], 2, [(1, "<", Fraction(1, 10))]), vf("X2", ["0", "x1"], 2))
        )
        with pytest.raises(ValueError, match="defined on all of R"):
            singular_locus_minors(D)

    def test_soundness_verification_runs(self, vf):
        # rank < generic rank iff all minors vanish, on the sample set
        D = Distribution(
            (vf("a", ["x1", "x2", "0"], 3), vf("b", ["0", "x3", "1"], 3))
        )
        singular_locus_minors(D)  # raises AssertionError on a violation


class TestAdapt:
    def test_recombination_vanishes(self, vf):
        D = Distribution((vf("e1", ["1", "0"], 2), vf("s", ["1", "x1"], 2)))
        out = adapt_generators(D, (0, 0))
        assert [str(c) for c in out[0].components] == ["1", "0"]
        assert [str(c) for c in out[1].components] == ["0", "x1"]

    def test_full_rank_unchanged(self, vf):
        gens = (vf("a", ["1", "0"], 2), vf("b", ["0", "1"], 2))
        out = adapt_generators(Distribution(gens), (3, 4))
        assert tuple(out) == gens

    def test_scalings_at_axis_point(self, diag):
        out = adapt_generators(diag, (1, 0))
        assert out[0].value((1, 0)) == [1, 0]
        assert out[1].value((1, 0)) == [0, 0]

    def test_basis_then_vanishing(self, vf):
        D = Distribution(
            (
                vf("a", ["x1", "0"], 2),
                vf("b", ["2*x1", "0"], 2),
                vf("c", ["0", "1"], 2),
            )
        )
        out = adapt_generators(D, (1, 1))
        values = [g.value((1, 1)) for g in out]
        assert values[0] == [1, 0] and values[1] == [0, 1]
        assert values[2] == [0, 0]


class TestInvariance:
    def test_commuting_translations(self, vf):
        D = Distribution((vf("d2", ["0", "1"], 2),))
        rep = invariance_check(D, vf("d1", ["1", "0"], 2), [(0, 0), (2, -1)], [0.1, -0.2])
        assert rep.bracket_invariant and rep.flow_invariant_sampled

    def test_shear_not_invariant(self, vf):
        D = Distribution((vf("d2", ["0", "1"], 2),))
        X = vf("X", ["x2", "0"], 2)
        rep = invariance_check(D, X, [(0, 0), (1, 2)], [0.1, -0.1])
        assert not rep.bracket_invariant
        gi, point, value = rep.bracket_witness
        assert tuple(value) == (-1, 0)
        assert not rep.flow_invariant_sampled

    def test_scalings_invariant(self, diag, vf):
        rep = invariance_check(diag, vf("X", ["x1", "0"], 2), [(1, 1), (2, 3)], [0.1])
        assert rep.bracket_invariant and rep.flow_invariant_sampled

    def test_flow_invariance_implies_bracket_invariance(self, vf):
        # the always-true direction, checked on several distributions
        cases = [
            (Distribution((vf("d2", ["0", "1"], 2),)), vf("X", ["1", "0"], 2)),
            (Distribution((vf("d2", ["0", "1"], 2),)), vf("X", ["x2", "0"], 2)),
            (
                Distribution((vf("a", ["x1", "0"], 2), vf("b", ["0", "x2"], 2))),
                vf("X", ["x1", "0"], 2),
            ),
            (
                Distribution((vf("a", ["1", "0"], 2), vf("b", ["0", "x1"], 2))),
                vf("X", ["0", "1"], 2),
            ),
        ]
        pts = [(0, 0), (1, 1), (Fraction(-1, 2), 2)]
        for D, X in cases:
            rep = invariance_check(D, X, pts, [0.1, -0.1, 0.2, -0.2])
            if rep.flow_invariant_sampled:
                assert rep.bracket_invariant

    def test_flow_skips_counted(self, vf):
        X = vf("X", ["1", "0"], 2, [(1, "<", Fraction(1, 2))])
        g1 = vf("g1", ["0", "1"], 2, [(1, ">", Fraction(-1, 2))])
        D = Distribution((g1, vf("g2", ["0", "1"], 2)))
        # t = -0.75 leaves X's domain (both generators skipped); t = 0.75
        # pulls back outside g1's domain (g1 skipped)
        rep = invariance_check(D, X, [(0, 0)], [0.25, -0.75, 0.75])
        assert rep.flow_invariant_sampled
        assert rep.flow_samples_skipped == 3

    def test_fibre_evaluated_once_per_flowed_point(self, vf, monkeypatch):
        calls = []
        real = Distribution.defined_values
        monkeypatch.setattr(Distribution, "defined_values",
                            lambda D, p: calls.append(tuple(p)) or real(D, p))
        X = vf("X", ["1", "0"], 2, [(1, "<", Fraction(1, 2))])
        D = Distribution((vf("d2", ["0", "1"], 2),))
        # every flow fails at (1, 0), outside X's domain, where the bracket
        # is undefined too: only (0, 0) needs its fibre, once for the bracket
        # and once for all three flow times
        rep = invariance_check(D, X, [(0, 0), (1, 0)], [0.1, -0.1, 0.2])
        assert rep.flow_invariant_sampled and rep.flow_samples_skipped == 3
        assert calls == [(0, 0), (0, 0)]

    def test_non_flow_error_propagates(self, vf):
        # g has a pole at the pulled-back point (-1, 0) but not at (0, 0)
        D = Distribution((vf("g", ["(x1+1)^-1", "0"], 2),))
        with pytest.raises(EvalError):
            invariance_check(D, vf("X", ["1", "0"], 2), [(0, 0)], [1.0])


class TestRobustness:
    def test_rank_unchanged_by_module_augmentation(self, vf):
        # appending f * g_i never changes the pointwise span
        rng = np.random.default_rng(17)
        base = [vf("a", ["x1", "x2"], 2), vf("b", ["0", "x1^2"], 2)]
        D = Distribution(tuple(base))
        fs = [parse(t, 2) for t in ["x1", "x2^2-1", "x1*x2+3"]]
        for f in fs:
            aug = Distribution(tuple(base + [multiply_field(f, base[0])]))
            for _ in range(50):
                p = (
                    Fraction(int(rng.integers(-8, 9)), 4),
                    Fraction(int(rng.integers(-8, 9)), 4),
                )
                assert rank_at(D, p).rank == rank_at(aug, p).rank

    def test_lower_semicontinuity_near_max_rank(self, diag, flat_pair, vf):
        # a small perturbation of a maximal-rank point keeps maximal rank
        rng = np.random.default_rng(8)
        cases = [
            (diag, (1.0, 1.0), 2),
            (flat_pair, (1.0, 0.0), 2),
            (Distribution((vf("a", ["1", "0"], 2), vf("b", ["0", "x1"], 2))), (0.5, 0.0), 2),
        ]
        for D, p, want in cases:
            assert rank_at(D, p).rank == want
            for _ in range(20):
                q = tuple(c + rng.uniform(-1e-3, 1e-3) for c in p)
                assert rank_at(D, q).rank == want
