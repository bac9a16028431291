import json
from fractions import Fraction

import pytest

from vfkit import fields, frobenius, liealg, orbits, vectorfield
from vfkit.cli import main
from vfkit.distributions import Distribution
from vfkit.frobenius import flow_box_chart, frobenius_verdict
from vfkit.orbits import WordSampler, orbit_dimension
from vfkit.presets import PRESETS
from vfkit.systems import parse_system

from conftest import spy_brackets



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
    where ``orbits.exact_certificate`` finds no exact bracket rank (not
    under Nagano, not at full rank, and not where every generator is
    exactly zero)."""

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
        real = orbits.sampled_orbits
        monkeypatch.setattr(orbits, "sampled_orbits",
                            lambda fam, ps, ss: calls.extend(ps) or real(fam, ps, ss))
        D = Distribution(parse_system(PRESETS[name].system_text).fields)
        v = frobenius_verdict(D, grid, orbit_sampler=sampler)
        assert len(calls) == sampled
        assert v.integrable == verdict and v.involutive_pointwise
        assert v.witnesses == tuple(p for p in grid if p[0] in witness_x1)
        # every sampled point is a witness: no sample is wasted here
        assert tuple(calls) == v.witnesses
        if verdict == "no":
            assert v.clause.startswith(SAMPLED_CLAUSE)

    def test_deeper_words_only_below_full_rank(self, monkeypatch):
        # two-sided-flat's half-step grid has rank 2 at depth 1 off x1 = 0,
        # so the ladder evaluates words of depth >= 2 only at the 5 samples
        # on x1 = 0
        evaluated = []
        real = liealg.field_values
        monkeypatch.setattr(liealg, "field_values",
                            lambda fs, ps: evaluated.append(list(ps)) or real(fs, ps))
        D = Distribution(parse_system(PRESETS["two-sided-flat"].system_text).fields)
        frobenius_verdict(D, grid2(), orbit_sampler=WordSampler(seed=40, count=10))
        assert evaluated and all(ps == [p for p in grid2() if p[0] == 0] for ps in evaluated)

    def test_sampled_points_share_their_walks(self, monkeypatch):
        walks = []
        real = fields._walk
        monkeypatch.setattr(fields, "_walk", lambda *a: walks.append(len(a[1])) or real(*a))
        D = Distribution(parse_system(PRESETS["one-sided-flat"].system_text).fields)
        v = frobenius_verdict(D, grid2(), orbit_sampler=WordSampler(seed=30, count=400,
                                                                     max_len=8, max_time=1.5))
        assert len(v.witnesses) == 15
        assert 1 <= len(walks) <= 2

    # sampled orbit dimensions in ``vfkit frobenius`` on the default grid
    CLI_SAMPLED = {"one-sided-flat": 6, "two-sided-flat": 3, "half-plane-translations": 6}

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_cli_samples_per_preset(self, monkeypatch, capsys, tmp_path, name):
        calls = []
        real = orbits.sampled_orbits
        monkeypatch.setattr(orbits, "sampled_orbits",
                            lambda fam, ps, ss: calls.extend(ps) or real(fam, ps, ss))
        path = tmp_path / f"{name}.vf"
        path.write_text(PRESETS[name].system_text)
        assert main(["frobenius", "--system", str(path), "--format", "json"]) == 0
        capsys.readouterr()
        assert len(calls) == self.CLI_SAMPLED.get(name, 0)


class TestBracketsBuiltOnce:
    def test_one_bracket_per_pair_outside_the_filtration(self, monkeypatch):
        # one-sided-flat's 25-point grid reaches the orbit comparison, whose
        # ladder builds its own words; the pointwise checks and the module
        # certificate share one bracket per pair
        # the exact_ranks calls open, and the brackets built inside and outside them
        ranking, inside, outside = [0], [], []
        real_ranks = frobenius.exact_ranks

        def exact_ranks(*a, **kw):
            ranking[0] += 1
            try:
                return real_ranks(*a, **kw)
            finally:
                ranking[0] -= 1

        spy_brackets(monkeypatch, lambda *a: (inside if ranking[0] else outside).append(a))
        monkeypatch.setattr(frobenius, "exact_ranks", exact_ranks)
        D = Distribution(parse_system(PRESETS["one-sided-flat"].system_text).fields)
        v = frobenius_verdict(D, grid2(), orbit_sampler=WordSampler(seed=0, count=10))
        assert len(v.ranks) == 25 and v.involutive_pointwise
        assert len(outside) == 1 and inside


    def test_no_word_once_every_sample_is_exact(self, monkeypatch, capsys, tmp_path):
        # on mixed-degree-pair's default grid every sample is "bracket-rank"
        # at depth 1 (rank 2, or both generators exactly zero at the origin),
        # so the one pairwise bracket is the only bracket built
        built = []
        spy_brackets(monkeypatch, lambda *a: built.append(a))
        path = tmp_path / "mixed-degree-pair.vf"
        path.write_text(PRESETS["mixed-degree-pair"].system_text)
        assert main(["frobenius", "--system", str(path), "--format", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["integrable"], results["ranks"]) == ("undetermined", [2] * 4 + [0] + [2] * 4)
        assert len(built) == 1


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

    def test_restricted_domains_get_no_module_yes(self):
        # Hermann's and Nagano's theorem needs sections on all of R^n.  The
        # constant fields' module is involutive, but X1 lives on x1 < 1 and
        # X2 on x1 > -1: at x1 = -1 the fibre has rank 1 and the orbit 2
        system = parse_system(PRESETS["half-plane-translations"].system_text)
        v = frobenius_verdict(Distribution(system.fields), grid2(1))
        assert v.module_involutive is None and v.module_degree is None
        assert v.integrable == "no" and v.clause.startswith(SAMPLED_CLAUSE)
        assert v.witnesses == ((-1, -1), (-1, 0), (-1, 1))

    def test_oversized_module_system_is_not_attempted(self):
        # nine fields at multiplier degree 12 make 9 * C(15, 3) = 4095
        # unknowns, over membership.UNKNOWNS_CAP: the certificate is not
        # attempted and the orbit comparison goes on (rank 3 is exact)
        fields = ["(1, 0, 0)", "(0, 1, 0)", "(0, 0, 1)", "(x2, 0, 0)", "(0, x3, 0)",
                  "(0, 0, x1)", "(x3, 0, 0)", "(0, x1, 0)", "(0, 0, x2)"]
        text = "system nine dim 3\n" + "".join(f"field X{j} = {f}\n" for j, f in enumerate(fields))
        v = frobenius_verdict(Distribution(parse_system(text).fields), grid3(), 12)
        assert v.module_involutive is None and v.module_degree is None
        assert v.integrable == "undetermined" and v.ranks == (3,) * 27
        assert v.clause.endswith("decided the question; the module certificate was not "
                                 "attempted: membership system has 4095 unknowns, more than 4000")

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

    def test_rank_zero_base_is_the_empty_word(self):
        # both generators vanish at the origin: the one image is the base, it
        # has no tangent, and the orbit is the point
        D = Distribution(parse_system(PRESETS["vanishing-pair"].system_text).fields)
        chart = flow_box_chart(D, (0, 0))
        assert (chart.accepted, chart.rejected_reason, chart.chart_rank) == (True, None, 0)
        assert (chart.max_residual, chart.image_tangent_rank, chart.orbit_dimension) == (
            0.0, 0, 0)
        assert chart.fibre_rank_constant

    def test_one_pushforward_walk_per_image(self, monkeypatch):
        # each image's m tangents come from one walk of m words; no one-word
        # pushforward is made
        walks = []
        real = fields.pushforward_along_words

        def counted(family, words, X, point):
            walks.append(len(words))
            return real(family, words, X, point)

        def refuse(*a, **kw):
            raise AssertionError("a chart called pushforward_along_word")

        monkeypatch.setattr(fields, "pushforward_along_words", counted)
        monkeypatch.setattr(fields, "pushforward_along_word", refuse)
        D = Distribution(parse_system(PRESETS["coordinate-plane"].system_text).fields)
        chart = flow_box_chart(D, (0, 0, 0))
        assert (chart.accepted, chart.chart_rank, chart.orbit_dimension) == (True, 2, 2)
        assert walks == [2] * 9

    def test_one_solved_row_per_tangent(self, monkeypatch):
        # each of an image's m tails pushes only its own frame field: m
        # solved rows per image, not m * m
        rows = []
        real = fields._solve
        monkeypatch.setattr(fields, "_solve", lambda A, B: rows.append(len(A)) or real(A, B))
        D = Distribution(parse_system(PRESETS["coordinate-plane"].system_text).fields)
        chart = flow_box_chart(D, (0, 0, 0))
        assert (chart.accepted, chart.chart_rank) == (True, 2)
        assert rows == [2] * 9


class TestCoherence:
    def test_chart_accepted_iff_point_not_flagged(self, shear3, plane3, isolated, radial, flat, vf):
        # accepted chart <=> neither verdict detector (involutivity failure,
        # orbit-rank gap) flags the base point
        from vfkit.distributions import rank_at
        from vfkit.vectorfield import field_values
        from vfkit.liealg import pairwise_brackets, pointwise_witnesses
        from vfkit.orbits import orbit_dimension

        def point_flagged(D, base, sampler):
            fam = list(D.generators)
            values = field_values(fam, [base])
            if next(pointwise_witnesses(values, pairwise_brackets(fam), [base])) is not None:
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


@pytest.mark.parametrize("name", ["one-sided-flat", "mixed-degree-pair"])
def test_verdict_evaluates_each_generator_once_per_sample(name, monkeypatch):
    # the fibre rank, the pointwise witness, the bracket rank and the
    # fixed-point test all read one evaluation per (generator, sample)
    D = Distribution(parse_system(PRESETS[name].system_text).fields)
    calls = []
    real = vectorfield._compile_value

    def spy(X):
        value = real(X)
        return lambda p: calls.append((X, tuple(p))) or value(p)

    monkeypatch.setattr(vectorfield, "_compile_value", spy)
    grid = [(Fraction(i), Fraction(j)) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    v = frobenius_verdict(D, grid)
    assert v.integrable == ("no" if name == "one-sided-flat" else "undetermined")
    generator_calls = [c for c in calls if c[0] in D.generators]
    assert len(generator_calls) == len(set(generator_calls)) == 18
    # and every pairwise bracket and bracket word at most once per sample
    assert len(calls) == len(set(calls))


def test_verdict_compiles_each_field_bracket_and_word_once(monkeypatch):
    # one-sided-flat passes the pointwise test and samples orbits below the
    # bracket rank: its generators, pairwise brackets and bracket words are
    # each compiled once for all nine samples
    family = parse_system(PRESETS["one-sided-flat"].system_text).fields
    compiled = []
    real = vectorfield._compile_value
    monkeypatch.setattr(vectorfield, "_compile_value", lambda X: compiled.append(X) or real(X))
    grid = [(Fraction(i), Fraction(j)) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    v = frobenius_verdict(Distribution(family), grid)
    assert v.integrable == "no" and "sampled" in v.clause
    names = [X.name for X in compiled]
    assert len(names) == len(set(names))
    assert {"X1", "X2", "[X1,X2]", "[X2,X1]"} <= set(names)


def test_chart_asks_only_for_the_orbit_dimension(monkeypatch):
    # the base's orbit dimension is an exact rank from the ladder, else a
    # sampled dimension, and its value and kind are orbit_dimension's; no
    # chart builds orbit_dimension's full report
    sampler = WordSampler(seed=0, count=300, max_len=8, max_time=1.0)
    cases = [("one-sided-flat", (-1, 0)), ("mixed-degree-pair", (0, 0)),
             ("nine-orbits", (-1, 0)), ("two-sided-flat", (Fraction(1, 2),) * 2)]
    families = {name: parse_system(PRESETS[name].system_text).fields for name, _ in cases}
    want = {(name, base): orbit_dimension(families[name], base, sampler)
            for name, base in cases}
    assert [rep.certificate for rep in want.values()] == [
        "sampled", "bracket-rank", "nagano", "bracket-rank"]

    def refuse(*a, **kw):
        raise AssertionError("a chart called orbit_dimension")

    monkeypatch.setattr(orbits, "orbit_dimension", refuse)
    monkeypatch.setattr(frobenius, "orbit_dimension", refuse, raising=False)
    for name, base in cases:
        chart = flow_box_chart(Distribution(families[name]), base, orbit_sampler=sampler)
        rep = want[name, base]
        assert chart.orbit_dimension == rep.dimension
        assert chart.accepted == (rep.certificate != "sampled")
    assert chart.rejected_reason is None
    rejected = flow_box_chart(Distribution(families["one-sided-flat"]), (-1, 0),
                              orbit_sampler=sampler)
    assert rejected.rejected_reason == (
        "sampled orbit dimension 2 at the base exceeds the chart rank 1")
