from fractions import Fraction

import pytest

from vfkit import frobenius
from vfkit.distributions import Distribution
from vfkit.frobenius import flow_box_chart, frobenius_verdict
from vfkit.orbits import WordSampler, orbit_dimension
from vfkit.presets import PRESETS
from vfkit.systems import parse_system



def grid2(step=2):
    return [(Fraction(i, step), Fraction(j, step))
            for i in range(-step, step + 1) for j in range(-step, step + 1)]


def grid3():
    return [(Fraction(i), Fraction(j), Fraction(k))
            for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]


@pytest.fixture
def shear3(vf):
    return Distribution((vf("X1", ["0", "1", "0"], 3), vf("X2", ["1", "0", "x2"], 3)))


@pytest.fixture
def plane3(vf):
    return Distribution((vf("X1", ["1", "0", "0"], 3), vf("X2", ["0", "1", "0"], 3)))


@pytest.fixture
def isolated(vf):
    return Distribution((vf("X1", ["x1*x3", "1", "0"], 3), vf("X2", ["0", "0", "1"], 3)))


@pytest.fixture
def radial(vf):
    return Distribution(
        (vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^2+x2^2"], 2))
    )


@pytest.fixture
def flat(vf):
    return Distribution((vf("X1", ["1", "0"], 2), vf("X2", ["0", "bumpp(x1)"], 2)))


MODULE_CLAUSE = "pointwise involutive and the generator module is involutive"
BOOST = WordSampler(seed=17, count=400, max_len=8, max_time=1.5)
LIGHT = WordSampler(seed=5, count=100, max_len=4, max_time=1.0)


class TestVerdicts:
    def test_shear3_not_integrable(self, shear3):
        v = frobenius_verdict(shear3, grid3())
        assert v.integrable == "no"
        assert not v.involutive_pointwise
        assert v.witnesses  # every sample fails

    def test_plane_integrable(self, plane3):
        v = frobenius_verdict(plane3, grid3())
        assert v.integrable == "yes"
        assert v.module_involutive and v.clause.startswith(MODULE_CLAUSE)

    def test_radial_integrable_via_module(self, radial):
        v = frobenius_verdict(radial, grid2(), module_degree=1)
        assert v.integrable == "yes"
        assert v.module_involutive
        assert v.clause.startswith(MODULE_CLAUSE) and v.module_degree == 1

    def test_flat_not_integrable_with_origin_witness(self, flat):
        v = frobenius_verdict(flat, grid2(1), orbit_sampler=BOOST)
        assert v.integrable == "no"
        assert v.involutive_pointwise
        assert (Fraction(0), Fraction(0)) in v.witnesses

    def test_isolated_leaf_slice(self, isolated):
        v = frobenius_verdict(isolated, grid3())
        assert v.integrable == "no"
        assert all(p[0] != 0 for p in v.witnesses)
        assert {p for p in v.invariant_slice_samples} == {
            p for p in grid3() if p[0] == 0
        }

    def test_undetermined_without_decider(self, vf):
        # involutive, non-constant rank, non-polynomial, orbit matches rank:
        # the tree must fall through to "undetermined", never guess "yes"
        D = Distribution((vf("X", ["bumpp(x1)", "0"], 2),))
        v = frobenius_verdict(
            D, [(-1, 0), (1, 0)], orbit_sampler=WordSampler(seed=3, count=100)
        )
        assert v.integrable == "undetermined"


SAMPLED_CLAUSE = "sampled orbit dimension exceeds the fibre rank at a witness point"


class TestOrbitSamplesSkipped:
    """The orbit clause samples only where an orbit could outrun the fibre:
    not at full rank, and not where every generator is exactly zero."""

    @pytest.mark.parametrize("name,grid,sampler,sampled,verdict,witness_x1", [
        ("one-sided-flat", grid2(), WordSampler(seed=30, count=400, max_len=8, max_time=1.5),
         15, "no", {-1, Fraction(-1, 2), 0}),
        ("two-sided-flat", grid2(), WordSampler(seed=40, count=400, max_len=8, max_time=1.5),
         5, "no", {0}),
        # both generators vanish at the origin and the rank is 2 elsewhere
        ("mixed-degree-pair", grid2(1), WordSampler(seed=0, count=300, max_len=8, max_time=1.0),
         0, "undetermined", set()),
    ], ids=["one-sided-flat", "two-sided-flat", "mixed-degree-pair"])
    def test_samples_only_where_the_orbit_may_outrun(
        self, monkeypatch, name, grid, sampler, sampled, verdict, witness_x1
    ):
        calls = []
        real = frobenius.sampled_orbit_dimension
        monkeypatch.setattr(frobenius, "sampled_orbit_dimension",
                            lambda fam, p, s: calls.append(p) or real(fam, p, s))
        D = Distribution(parse_system(PRESETS[name].system_text).fields)
        v = frobenius_verdict(D, grid, orbit_sampler=sampler)
        assert len(calls) == sampled
        assert v.integrable == verdict and v.involutive_pointwise
        assert v.witnesses == tuple(p for p in grid if p[0] in witness_x1)
        # every sampled point is a witness: no sample is wasted here
        assert tuple(calls) == v.witnesses
        if verdict == "no":
            assert v.clause.startswith(SAMPLED_CLAUSE)


class TestYesOnlyFromModule:
    def test_circle_rank_drop_not_yes(self, vf, flow_steps):
        # every sample has rank 2, but the rank drops to 1 on the circle
        # x1^2+x2^2 = 1/7, which holds no rational point; off x1 = 0 the
        # bracket (0, 2*x1) leaves the fibre there.  The family is analytic
        # and certified, so the words' rank 2 is the orbit's: no flow runs
        D = Distribution((vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1^2+x2^2-1/7"], 2)))
        v = frobenius_verdict(
            D, grid2(1), orbit_sampler=WordSampler(seed=0, count=20, max_len=3, max_time=0.2)
        )
        assert v.ranks == (2,) * 9
        assert v.integrable == "undetermined"
        assert v.module_involutive is False
        assert flow_steps == []

    def test_quartic_twist_refuted(self, vf, flow_steps):
        # [X1, X2] = (0, 0, x1^3 - x1) vanishes on the planes x1 in {-1, 0, 1},
        # which hold every sample, and a 2-minor is 1; off those planes the
        # bracket leaves the fibre, so deeper words reach rank 3 at every
        # sample: a bracket-rank witness, found without a flow
        D = Distribution(
            (vf("X1", ["1", "0", "0"], 3), vf("X2", ["0", "1", "x1^4/4-x1^2/2"], 3))
        )
        v = frobenius_verdict(D, grid3())
        assert v.involutive_pointwise and v.ranks == (2,) * 27
        assert v.module_involutive is False
        assert v.integrable == "no"
        assert "bracket-rank witness" in v.clause
        assert len(v.witnesses) == 27
        assert flow_steps == []

    @pytest.mark.parametrize("name", ["coordinate-plane", "vanishing-pair", "umbrella-ideal"])
    def test_preset_yes_from_module(self, name):
        system = parse_system(PRESETS[name].system_text)
        grid = grid3() if system.dim == 3 else grid2(1)
        v = frobenius_verdict(Distribution(system.fields), grid)
        assert v.integrable == "yes"
        assert v.module_involutive and v.clause.startswith(MODULE_CLAUSE)


class TestCharts:
    def test_plane_chart_exact(self, plane3):
        chart = flow_box_chart(plane3, (0, 0, 0))
        assert chart.accepted
        assert chart.max_residual < 1e-12
        assert chart.image_tangent_rank == 2

    def test_diag_chart_in_quadrant(self, vf):
        D = Distribution((vf("X1", ["x1", "0"], 2), vf("X2", ["0", "x2"], 2)))
        chart = flow_box_chart(D, (1, 1))
        assert chart.accepted
        assert chart.max_residual < 1e-7

    def test_shear3_chart_rejected(self, shear3):
        chart = flow_box_chart(shear3, (0, 0, 0))
        assert not chart.accepted
        assert chart.max_residual > 1e-7

    def test_flat_chart_rejected_at_origin(self, flat):
        chart = flow_box_chart(flat, (0, 0), orbit_sampler=BOOST)
        assert not chart.accepted
        assert "orbit" in chart.rejected_reason

    def test_isolated_charts(self, isolated):
        assert flow_box_chart(isolated, (0, 0, 0), orbit_sampler=LIGHT).accepted
        off = flow_box_chart(isolated, (Fraction(1, 2), 0, 0), orbit_sampler=LIGHT)
        assert not off.accepted
        assert off.max_residual > 1e-7

    def test_flow_failure_rejects_chart(self, vf):
        # the chart's t = 0.2 step leaves x1 < 1/10
        X1 = vf("X1", ["1", "0"], 2, [(1, "<", Fraction(1, 10))])
        chart = flow_box_chart(Distribution((X1,)), (0, 0))
        sampled = orbit_dimension(
            [X1], (0, 0), WordSampler(seed=0, count=200, max_len=8, max_time=1.0)
        ).dimension
        assert chart.accepted is False
        assert chart.rejected_reason.startswith("flow failure")
        assert chart.orbit_dimension == sampled


class TestCoherence:
    def test_chart_accepted_iff_point_not_flagged(self, shear3, plane3, isolated, radial, flat, vf):
        # accepted chart <=> neither verdict detector (involutivity failure,
        # orbit-rank gap) flags the base point
        from vfkit.distributions import rank_at
        from vfkit.liealg import involutive
        from vfkit.orbits import orbit_dimension

        def point_flagged(D, base, sampler):
            fam = list(D.generators)
            if not involutive(fam, "pointwise", samples=[base]).involutive:
                return True
            rep = orbit_dimension(fam, base, sampler or WordSampler(seed=0, count=200, max_len=8, max_time=1.0))
            return rep.dimension > rank_at(D, base).rank

        diag = Distribution((vf("X1", ["x1", "0"], 2), vf("X2", ["0", "x2"], 2)))
        cases = [
            (shear3, grid3(), {}, [(0, 0, 0), (1, 0, 0)]),
            (plane3, grid3(), {}, [(0, 0, 0), (1, -1, 0)]),
            (isolated, grid3(), {"orbit_sampler": LIGHT},
             [(0, 0, 0), (Fraction(1, 2), 0, 0), (1, 0, 0)]),
            (radial, grid2(),
             {"module_degree": 1,
              "orbit_sampler": WordSampler(seed=2, count=60, max_len=3, max_time=0.2)},
             [(0, 0), (1, 1)]),
            (flat, grid2(1), {"orbit_sampler": BOOST},
             [(0, 0), (-1, 0), (1, 0)]),
            (diag, grid2(), {}, [(1, 1), (1, 0), (0, 0)]),
        ]
        for D, samples, kw, bases in cases:
            verdict = frobenius_verdict(D, samples, **kw)
            sampler = kw.get("orbit_sampler")
            for base in bases:
                chart = flow_box_chart(D, base, orbit_sampler=sampler)
                flagged = point_flagged(D, base, sampler)
                assert chart.accepted == (not flagged), (
                    f"base {base}: accepted={chart.accepted} "
                    f"flagged={flagged} reason={chart.rejected_reason}"
                )
                # sampled bases must agree with the verdict's witness list
                if tuple(base) in {tuple(s) for s in samples} and verdict.integrable == "no":
                    assert (tuple(base) in verdict.witnesses) == flagged

    def test_no_accepted_chart_near_bracket_escape(self, shear3, isolated):
        # wherever a bracket value escapes the fibre, charts nearby fail
        for D, pts in [
            (shear3, [(0, 0, 0), (0.05, -0.05, 0.1)]),
            (isolated, [(0.5, 0, 0), (0.55, 0.05, 0.05)]),
        ]:
            for p in pts:
                assert not flow_box_chart(D, p, orbit_sampler=LIGHT).accepted
