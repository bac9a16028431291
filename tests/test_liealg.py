from fractions import Fraction

import numpy as np
import pytest

from vfkit.expr import parse
from vfkit.fields import lie_bracket, multiply_field, scale_field
from vfkit import membership
from vfkit.liealg import (
    LieAlgebraError,
    derived_algebra,
    filtration,
    fixed_time_ideal_rank,
    involutive,
)



def ranks_by_depth(filt, point):
    return [filt.rank_at(point, d) for d in range(1, filt.depth_cap + 1)]


@pytest.fixture
def diag(vf):
    return [vf("X1", ["x1", "0"], 2), vf("X2", ["0", "x2"], 2)]


@pytest.fixture
def shear(vf):
    return [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1"], 2)]


@pytest.fixture
def flat(vf):
    return [vf("X1", ["1", "0"], 2), vf("X2", ["0", "bumpp(x1)"], 2)]


class TestFiltration:
    def test_diag_stabilizes_immediately(self, diag):
        f = filtration(diag, 6)
        assert f.stabilized_at == 1
        assert all(not level for level in f.levels[1:])
        assert ranks_by_depth(f, (0, 0)) == [0] * 6
        assert ranks_by_depth(f, (1, 0)) == [1] * 6
        assert ranks_by_depth(f, (1, 1)) == [2] * 6

    def test_shear_gains_rank_at_depth_two(self, shear):
        f = filtration(shear, 6)
        assert f.stabilized_at == 2
        assert ranks_by_depth(f, (0, 0)) == [1, 2, 2, 2, 2, 2]

    def test_flat_family_is_capped(self, flat):
        f = filtration(flat, 8)
        assert f.stabilized_at is None and f.certificate is None
        assert f.rank_at((-1, 0)) == 1
        assert f.rank_at((0, 0)) == 1
        assert f.rank_at((1, 0)) == 2

    def test_module_certificate(self, vf):
        # brackets reproduce a generator up to a polynomial multiplier
        fam = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1^2+1"], 2)]
        f = filtration(fam, 5, module_degree=3)
        assert f.stabilized_at is not None
        assert f.certificate is not None

    def test_rank_sequence_nondecreasing(self, vf):
        rng = np.random.default_rng(12)
        fams = [
            [vf("A", ["1", "0", "0"], 3), vf("B", ["0", "1", "x1*x2"], 3)],
            [vf("A", ["x2", "0"], 2), vf("B", ["0", "x1"], 2)],
            [vf("A", ["1", "x3", "0"], 3), vf("B", ["0", "x1", "1"], 3)],
        ]
        for fam in fams:
            pts = [tuple(rng.uniform(-1, 1, size=fam[0].dim)) for _ in range(5)]
            f = filtration(fam, 5)
            for seq in (ranks_by_depth(f, p) for p in pts):
                assert all(a <= b for a, b in zip(seq, seq[1:]))

    def test_depth_cap_bounds(self, diag):
        with pytest.raises(LieAlgebraError):
            filtration(diag, 11)

    def test_module_search_solves_one_system_per_depth(self, vf, monkeypatch):
        solved = []

        def counting(A, rhs):
            solved.append(len(rhs))
            return exact_solve(A, rhs)

        exact_solve = membership.exact_solve
        monkeypatch.setattr(membership, "exact_solve", counting)
        fam = [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^4+x2^4"], 2)]
        f = filtration(fam, 6, 6)
        # no certificate: depths 1..5 are tried, each against its next level
        # as one system (one system per word of those levels before: 22)
        assert f.stabilized_at is None
        assert solved == [len(level) for level in f.levels[1:]]
        assert len(solved) == 5

    def test_duplicate_generators_ignored(self, vf):
        fam = [
            vf("X1", ["x1", "0"], 2),
            vf("X1b", ["3*x1", "0"], 2),
            vf("X2", ["0", "x2"], 2),
        ]
        f = filtration(fam, 4)
        assert len(f.levels[0]) == 2  # the rescaled copy is pruned
        assert ranks_by_depth(f, (1, 1)) == [2, 2, 2, 2]


class TestInvolutivity:
    def test_shear3_not_involutive(self, vf):
        fam = [vf("X1", ["0", "1", "0"], 3), vf("X2", ["1", "0", "x2"], 3)]
        rep = involutive(fam, "pointwise", samples=[(0, 0, 0), (1, 1, 1)])
        assert not rep.involutive
        assert rep.witness[:2] == (0, 1)

    def test_radial_pair_module_involutive(self, vf):
        fam = [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^2+x2^2"], 2)]
        assert involutive(fam, "module", degree=1).involutive

    def test_mixed_pair_not_module_involutive(self, vf):
        fam = [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^4+x2^4"], 2)]
        rep = involutive(fam, "module", degree=8)
        assert not rep.involutive
        assert (rep.witness, rep.degree) == ((0, 1), 8)

    def test_module_witness_is_first_non_member_pair(self, vf):
        radial = ["x1^2+x2^2", "0"], ["0", "x1^2+x2^2"]
        fam = [vf(f"X{k}", c, 2) for k, c in enumerate(radial + (["0", "x1^4+x2^4"],))]
        singles = {
            (i, j): membership.member_bounded(lie_bracket(fam[i], fam[j]), fam, 2).member
            for i, j in [(0, 1), (0, 2), (1, 2)]
        }
        first = next(ij for ij, member in singles.items() if not member)
        assert singles[(0, 1)] and first != (0, 1)
        assert involutive(fam, "module", degree=2).witness == first

    def test_flat_pair_pointwise_involutive(self, flat):
        samples = [(-1, 0), (0, 0), (1, 0), (0.5, 0.5), (-2, 1)]
        assert involutive(flat, "pointwise", samples=samples).involutive


class TestDerived:
    def test_commuting_family_empty(self, diag):
        assert derived_algebra(diag, 4) == []

    def test_shear_single_direction(self, shear):
        fields = [f for _, f in derived_algebra(shear, 4)]
        assert len(fields) == 1
        assert [str(c) for c in fields[0].components] == ["0", "-1"]

    def test_heisenberg_direction(self, vf):
        fam = [vf("X1", ["0", "1", "0"], 3), vf("X2", ["1", "0", "x2"], 3)]
        fields = [f for _, f in derived_algebra(fam, 4)]
        assert len(fields) == 1
        values = fields[0].value((0, 0, 0))
        assert [abs(v) for v in values] == [0, 0, 1]


class TestFixedTimeIdeal:
    def test_diag_codim_one(self, diag):
        rep = fixed_time_ideal_rank(filtration(diag), (1, 1))
        assert (rep.ideal_rank, rep.lie_rank, rep.codim) == (1, 2, 1)

    def test_shear_codim_zero(self, shear):
        rep = fixed_time_ideal_rank(filtration(shear), (0, 0))
        assert (rep.ideal_rank, rep.lie_rank, rep.codim) == (2, 2, 0)

    def test_single_field(self, vf):
        rep = fixed_time_ideal_rank(filtration([vf("X", ["1", "0"], 2)]), (3, -2))
        assert (rep.ideal_rank, rep.lie_rank, rep.codim) == (0, 1, 1)

    def test_codim_invariant_across_presets(self, diag, shear, flat, vf):
        fams = [
            diag,
            shear,
            flat,
            [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^2+x2^2"], 2)],
            [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)],
        ]
        pts = [(0, 0), (1, 0), (1, 1), (Fraction(-1, 2), Fraction(3, 2))]
        for fam in fams:
            filt = filtration(fam)
            for p in pts:
                rep = fixed_time_ideal_rank(filt, p)  # raises if codim not in {0,1}
                assert rep.codim in (0, 1)


class TestGeneratorRobustness:
    def test_module_multiples_do_not_change_rank(self, shear, diag, vf):
        rng = np.random.default_rng(23)
        fams = [shear, diag, [vf("A", ["x2", "0"], 2), vf("B", ["0", "x1"], 2)]]
        multipliers = [parse(t, 2) for t in ["x1", "x2 - 2", "x1*x2 + 1"]]
        pts = [(0, 0), (1, 0), (1, 1), (Fraction(1, 2), Fraction(-3, 2))]
        cap = 4
        for fam in fams:
            base = filtration(fam, cap + 1)
            for f in multipliers:
                which = int(rng.integers(0, len(fam)))
                aug = list(fam) + [multiply_field(f, fam[which])]
                grown = filtration(aug, cap + 1)
                for p in pts:
                    assert base.rank_at(p) == grown.rank_at(p)

    def test_rescaling_never_changes_rank(self, shear):
        aug = list(shear) + [scale_field(Fraction(5, 3), shear[0])]
        base = filtration(shear, 4)
        grown = filtration(aug, 4)
        for p in [(0, 0), (2, 1)]:
            assert base.rank_at(p) == grown.rank_at(p)

    def test_generator_dependence_regression_pair(self, flat, shear):
        # same smooth distribution away from the flat wall, different ranks
        assert filtration(flat, 8).rank_at((0, 0)) == 1
        assert filtration(shear, 8).rank_at((0, 0)) == 2
