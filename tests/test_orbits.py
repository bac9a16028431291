import itertools
from fractions import Fraction

import numpy as np
import pytest

from vfkit import frobenius, liealg, orbits
from vfkit.distributions import Distribution
from vfkit.expr import parse
from vfkit.fields import DomainExitError, apply_word
from vfkit.presets import PRESETS, steer_linear
from vfkit.systems import parse_system
from vfkit.orbits import (
    FIRST_WORDS,
    WordSampler,
    chow_verdict,
    fixed_time_dimension,
    nagano_certified,
    orbit_dimension,
    sampled_fixed_time,
    sampled_orbit,
    sampled_orbit_dimension,
)
from vfkit.linalg import FLOW_REL_TOL, svd_rank



@pytest.fixture
def diag(vf):
    return [vf("X1", ["x1", "0"], 2), vf("X2", ["0", "x2"], 2)]


@pytest.fixture
def flat(vf):
    return [vf("X1", ["1", "0"], 2), vf("X2", ["0", "bumpp(x1)"], 2)]


@pytest.fixture
def partial(vf):
    return [
        vf("X1", ["1", "0"], 2, [(1, "<", Fraction(1))]),
        vf("X2", ["0", "1"], 2, [(1, ">", Fraction(-1))]),
    ]


@pytest.fixture
def cubic(vf):
    return [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1^2*x2+x2^3"], 2)]


NINE = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)]


class TestSampler:
    def test_deterministic(self):
        a = WordSampler(seed=5, count=10).words(2)
        b = WordSampler(seed=5, count=10).words(2)
        assert a == b
        assert WordSampler(seed=6, count=10).words(2) != a

    def test_zero_sum_exact(self):
        for w in WordSampler(seed=1, count=50, constraint="zero-sum").words(3):
            assert sum(t for _, t in w) == 0.0

    def test_lengths_within_bounds(self):
        for w in WordSampler(seed=3, count=100, max_len=4).words(2):
            assert 1 <= len(w) <= 4

    @pytest.mark.parametrize("constraint", ["free", "zero-sum"])
    def test_draw_is_the_word_list(self, constraint):
        s = WordSampler(seed=7, count=60, max_len=5, constraint=constraint)
        assert list(s.draw(3)) == s.words(3)
        # a prefix needs only its own words
        assert list(itertools.islice(s.draw(3), 10)) == s.words(3)[:10]


class TestOrbitDimension:
    def test_nine_orbit_dimensions(self, diag):
        want = [0, 1, 1, 1, 1, 2, 2, 2, 2]
        got = [
            orbit_dimension(diag, p, WordSampler(seed=i, count=100)).dimension
            for i, p in enumerate(NINE)
        ]
        assert got == want

    def test_sampled_dim_at_least_bracket_rank(self, diag, flat, vf):
        shear = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1"], 2)]
        fams = [diag, flat, shear]
        pts = [(0, 0), (1, 0), (1, 1), (-1, 0)]
        for fam in fams:
            for i, p in enumerate(pts):
                rep = orbit_dimension(
                    fam, p, WordSampler(seed=40 + i, count=200, max_len=8, max_time=1.5)
                )
                assert rep.dimension >= rep.linf_rank

    def test_flat_family_full_orbits(self, flat):
        s = WordSampler(seed=13, count=400, max_len=8, max_time=1.5)
        for p in [(-1, 0), (0, 0), (1, 0)]:
            rep = orbit_dimension(flat, p, s)
            assert rep.dimension == 2

    def test_partial_fields_skip_statistics(self, partial):
        rep = orbit_dimension(partial, (2, 0), WordSampler(seed=4, count=100))
        assert rep.dimension == 1
        assert rep.words_skipped > 0
        assert rep.words_used + rep.words_skipped == 100

    def test_all_words_exit(self, vf):
        lonely = [vf("X", ["1"], 1, [(1, "<", Fraction(0))])]
        with pytest.raises(DomainExitError):
            orbit_dimension(lonely, (1,), WordSampler(seed=1, count=10))

    def test_certified_exact_only_at_full_dimension(self, flat):
        # words of total time <= 3 never leave x1 <= 0, where bumpp(x1) and
        # every bracket vanish: dimension 1 equals the Lie rank 1, yet longer
        # words show the orbit is R^2 (the CLI's certified_exact key, tested
        # in test_systems_cli, is true only for the full sampled dimension)
        short = orbit_dimension(flat, (-3, 0), WordSampler(seed=0, count=200))
        assert (short.dimension, short.linf_rank, short.certificate) == (1, 1, "sampled")
        long = orbit_dimension(flat, (-3, 0), WordSampler(seed=0, count=200, max_time=2.0))
        assert long.dimension == 2

    def test_determinism_of_report(self, diag):
        # orbit_dimension walks no word on diag (Nagano), so compare the sampler
        a = sampled_orbit(diag, (1, 1), WordSampler(seed=11, count=50))
        b = sampled_orbit(diag, (1, 1), WordSampler(seed=11, count=50))
        assert a == b and len(a.vectors) > 2


def analytic_certified_families(vf):
    """Every Nagano-certified family among the presets and the test fixtures."""
    fams = [list(parse_system(p.system_text).fields) for p in PRESETS.values()]
    fams += [
        [vf("X1", ["x1", "0"], 2), vf("X2", ["0", "x2"], 2)],
        [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1"], 2)],
        [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1^2*x2+x2^3"], 2)],
        [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1^2+x2^2-1/7"], 2)],
        [vf("X1", ["1", "0", "0"], 3), vf("X2", ["0", "1", "x1^4/4-x1^2/2"], 3)],
        [vf("X1", ["0", "1", "0"], 3), vf("X2", ["1", "0", "x2"], 3)],
        [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^2+x2^2"], 2)],
        [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)],
        [vf("X", ["exp(x2)", "0"], 2)],
    ]
    unique = {tuple(X.components for X in fam): fam for fam in fams}
    return [(fam, filt) for fam in unique.values()
            for filt in [liealg.filtration(fam)] if nagano_certified(filt)]


# the 2-D presets with closed-form flows; the ODE flows of vanishing-pair
# and mixed-degree-pair blow up and take seconds per point
CLOSED_FORM_PLANE = ["nine-orbits", "hyperbola-fixed-time", "one-sided-flat",
                     "two-sided-flat", "linear-shear", "quadratic-shear",
                     "double-integrator", "half-plane-translations"]


@pytest.fixture
def walked(monkeypatch):
    """The number of words of every pushforward walk that orbits makes."""
    sizes = []
    real = orbits.pushforward_along_words

    def counted(family, words, X, point):
        sizes.append(len(words))
        return real(family, words, X, point)

    monkeypatch.setattr(orbits, "pushforward_along_words", counted)
    return sizes


class TestDimensionOnly:
    @pytest.mark.parametrize("name", CLOSED_FORM_PLANE)
    def test_same_dimension_as_every_word(self, name):
        family = list(parse_system(PRESETS[name].system_text).fields)
        grid = [(Fraction(i, 2), Fraction(j, 2)) for i in (-2, 0, 1) for j in (-1, 2)]
        for p, seed in itertools.product(grid, (0, 1)):
            s = WordSampler(seed=seed, count=60, max_len=8, max_time=1.5)
            try:
                full = sampled_orbit(family, p, s).dimension
            except DomainExitError:
                with pytest.raises(DomainExitError):
                    sampled_orbit_dimension(family, p, s)
                continue
            assert sampled_orbit_dimension(family, p, s) == full, p

    def test_stops_once_the_rank_is_full(self, walked):
        family = parse_system(PRESETS["one-sided-flat"].system_text).fields
        s = WordSampler(seed=30, count=400, max_len=8, max_time=1.5)
        assert sampled_orbit_dimension(family, (-1, 0), s) == 2
        assert walked == [FIRST_WORDS]

    def test_walks_every_word_below_full_rank(self, flat, walked):
        # short words never leave x1 <= 0, where the orbit looks 1-D
        s = WordSampler(seed=0, count=200)
        assert sampled_orbit_dimension(flat, (-3, 0), s) == 1
        assert walked == [FIRST_WORDS, 200 - FIRST_WORDS]
        walked.clear()
        assert sampled_orbit(flat, (-3, 0), s).dimension == 1
        assert walked == [200]

    def test_every_word_exits(self, vf, walked):
        # a strip too thin for any sampled step: the generator value at the
        # point is the only vector, and every word counts as skipped
        strip = [vf("X", ["1", "0"], 2, [(1, ">", 0), (1, "<", Fraction(1, 10**9))])]
        p = (Fraction(1, 2 * 10**9), 0)
        s = WordSampler(seed=0, count=50)
        full = sampled_orbit(strip, p, s)
        assert (full.dimension, full.words_used, full.words_skipped) == (1, 0, 50)
        assert sampled_orbit_dimension(strip, p, s) == 1
        assert walked == [50, FIRST_WORDS, 50 - FIRST_WORDS]


class TestNagano:
    def test_cubic_orbit_walks_no_word(self, cubic, flow_steps):
        sampler = WordSampler(seed=0)
        rep = orbit_dimension(cubic, (Fraction(3, 10), Fraction(7, 10)), sampler)
        assert (rep.dimension, rep.linf_rank, rep.certificate) == (2, 2, "nagano")
        assert (rep.vectors, rep.words_used, rep.words_skipped) == ((), 0, 0)
        axis = orbit_dimension(cubic, (Fraction(1, 2), 0), sampler)
        assert (axis.dimension, axis.certificate) == (1, "nagano")
        assert flow_steps == []

    def test_fixed_time_reads_the_orbit_from_the_filtration(self, cubic, monkeypatch):
        calls = []
        monkeypatch.setattr(orbits, "sampled_orbit_dimension", lambda *a: calls.append(a))
        rep = fixed_time_dimension(cubic, (Fraction(1, 4), Fraction(1, 2)), 0.3,
                                   WordSampler(seed=2, count=20, max_len=4))
        assert rep.orbit_dimension_at_reached == 2 and calls == []

    def test_sampled_never_above_nagano_rank(self, vf):
        # Lie(F)(p) is the orbit tangent, so a larger sampled rank is a bug
        families = analytic_certified_families(vf)
        assert len(families) >= 14
        sampler = WordSampler(seed=21, count=12, max_len=3, max_time=0.4)
        for fam, filt in families:
            n = fam[0].dim
            grid = [p for p in itertools.product((-1, 0, 1), repeat=n)]
            for p in grid:
                sampled = sampled_orbit(fam, p, sampler).dimension
                assert sampled <= filt.rank_at(p), (fam, p)

    def test_flat_restricted_and_divided_families_sample(self, flat, partial, vf):
        divided = [vf("X", ["1/(1+x1^2)", "0"], 2)]
        flat_in_exp = [vf("X", ["exp(bumpp(x1))", "0"], 2)]
        assert liealg.filtration(divided).certificate == "symbolic-closure"
        for fam, p in [(flat, (-3, 0)), (partial, (2, 0)), (divided, (0, 0)),
                       (flat_in_exp, (1, 0))]:
            rep = orbit_dimension(fam, p, WordSampler(seed=0, count=20))
            assert rep.certificate == "sampled" and rep.vectors
        assert orbit_dimension([vf("X", ["exp(x2)", "0"], 2)], (0, 0),
                               WordSampler(seed=0)).certificate == "nagano"

    def test_over_cap_filtration_is_not_certified(self, monkeypatch, vf):
        from vfkit import membership

        monkeypatch.setattr(membership, "UNKNOWNS_CAP", 10)
        quadratic = [vf("X1", ["x2", "0"], 2), vf("X2", ["0", "x1^2"], 2)]
        filt = liealg.filtration(quadratic, 4)
        assert filt.certificate is None and not nagano_certified(filt)
        assert filt.note == ("module search stopped at depth 1: membership system "
                             "has 56 unknowns, more than 10")
        # below rank n the uncertified family samples; at (1, 1) its bracket
        # rank is n, which is the orbit dimension for any smooth family
        rep = orbit_dimension(quadratic, (0, 0), WordSampler(seed=0, count=10))
        assert (rep.certificate, rep.linf_rank, rep.words_used + rep.words_skipped) == (
            "sampled", 0, 10)
        rep = orbit_dimension(quadratic, (1, 1), WordSampler(seed=0, count=10))
        assert (rep.certificate, rep.dimension, rep.vectors) == ("bracket-rank", 2, ())


class TestFixedTime:
    def test_hyperbola_dimension_and_invariant(self, diag):
        rep = fixed_time_dimension(
            diag, (1, 1), 0.0, WordSampler(seed=3, count=200),
            invariant=parse("x1*x2", 2),
        )
        assert rep.dimension == 1
        assert rep.invariant_max_deviation < 1e-8
        assert rep.orbit_dimension_at_reached - rep.dimension == 1

    def test_axis_point_reaches_scaled_point(self, diag):
        rep = fixed_time_dimension(diag, (1, 0), 1.0, WordSampler(seed=5, count=100))
        assert rep.reached == pytest.approx((np.e, 0.0))

    def test_dimension_at_least_ideal_rank(self, diag, vf):
        integrator = [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)]
        cases = [(diag, (1, 1), 0.0), (diag, (1, 0), 0.5), (integrator, (0, 0), 1.0)]
        for fam, p, T in cases:
            rep = fixed_time_dimension(fam, p, T, WordSampler(seed=8, count=150))
            assert rep.dimension >= rep.ideal_rank

    def test_gap_zero_or_one(self, diag, partial, vf):
        integrator = [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)]
        cases = [
            (diag, (1, 1), 0.0),
            (diag, (1, 0), 0.5),
            (integrator, (0, 0), 1.0),
            (partial, (0, 0), 0.0),
            (partial, (3, 4), 0.0),
        ]
        for fam, p, T in cases:
            rep = fixed_time_dimension(fam, p, T, WordSampler(seed=9, count=150))
            assert rep.dimension_gap in (0, 1)

    def test_true_singleton_for_frozen_point(self, partial):
        rep = fixed_time_dimension(partial, (3, 4), 0.0, WordSampler(seed=2, count=150))
        assert rep.dimension == 0
        assert rep.max_displacement < 1e-12

    def test_integrator_fixed_time_full(self, vf):
        integrator = [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)]
        rep = fixed_time_dimension(integrator, (0, 0), 1.0, WordSampler(seed=6, count=150))
        assert rep.dimension == 2

    def test_one_filtration_per_call(self, diag, monkeypatch):
        calls = []
        original = liealg.filtration

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # the name is bound both in liealg and, by import, in orbits
        monkeypatch.setattr(liealg, "filtration", counted)
        monkeypatch.setattr(orbits, "filtration", counted)
        rep = fixed_time_dimension(diag, (1, 1), 0.0, WordSampler(seed=3, count=40))
        assert rep.orbit_dimension_at_reached == 2
        assert len(calls) == 1

    def test_sampled_dimension_callers_build_no_extra_filtration(self, flat, monkeypatch):
        calls = []
        original = liealg.filtration

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # each caller builds the one filtration whose words it reads (the
        # bracket-rank and Nagano tests), and no other
        monkeypatch.setattr(liealg, "filtration", counted)
        monkeypatch.setattr(orbits, "filtration", counted)
        monkeypatch.setattr(frobenius, "filtration", counted)
        sampler = WordSampler(seed=1, count=30, max_len=4, max_time=1.0)
        # the rank drops to 1 on x1 <= 0, so the verdict samples orbits there
        grid = [(Fraction(i, 2), Fraction(j, 2)) for i in (-1, 0, 1) for j in (-1, 1)]
        verdict = frobenius.frobenius_verdict(Distribution(tuple(flat)), grid,
                                              orbit_sampler=sampler)
        assert verdict.ranks == (1, 1, 1, 1, 2, 2)
        assert verdict.integrable == "no" and "sampled" in verdict.clause
        assert len(calls) == 1
        chart = frobenius.flow_box_chart(Distribution(tuple(flat)), (-1, 0),
                                         orbit_sampler=sampler)
        assert chart.orbit_dimension == 2
        assert len(calls) == 2
        rep = orbits.chow_verdict(flat, [(-1, 0), (-2, 1), (1, 0)], 2, sampler)
        assert len(rep.sampled_orbit_dims) == 2  # (-1, 0) and (-2, 1) fail
        assert len(calls) == 3  # chow_verdict's own


def zero_time_certified_families(vf):
    """The Nagano-certified families whose derived words certifiably span
    [L, L]: their fixed-time dimension is the exact rank of L0."""
    return [(fam, filt) for fam, filt in analytic_certified_families(vf)
            if liealg.derived_certificate(filt) is not None]


def preset_family(name):
    return list(parse_system(PRESETS[name].system_text).fields)


class TestZeroTimeIdeal:
    def test_generator_duplicate_gives_the_exact_rank(self, vf):
        # [X2, X1] = -X1 while X2 - X1 vanishes at 1
        rep = fixed_time_dimension([vf("X1", ["1"], 1), vf("X2", ["x1"], 1)], (1,), 0.0,
                                   WordSampler(seed=0, count=20))
        assert rep.reached == (1.0,)
        assert (rep.dimension, rep.ideal_rank, rep.certificate) == (1, 1, "zero-time-ideal")

    @pytest.mark.parametrize("name,dim", [("vanishing-pair", 2), ("umbrella-ideal", 0),
                                          ("isolated-leaf", 2)])
    def test_certified_presets_walk_no_pushforward(self, name, dim, walked):
        family = preset_family(name)
        p = tuple(Fraction(1, 2) for _ in range(family[0].dim))
        rep = fixed_time_dimension(family, p, 0.5, WordSampler(seed=0, count=12, max_len=3))
        assert walked == []
        assert (rep.dimension, rep.ideal_rank, rep.certificate) == (dim, dim,
                                                                     "zero-time-ideal")
        # the displacement walk counts the words
        assert rep.words_used + rep.words_skipped == 12 and rep.words_used > 0

    def test_uncertified_single_field_samples_zero(self, vf):
        # one field: every zero-sum word is the identity, so the pushforwards
        # differ from U only by integration noise (U is not certified on
        # x1 < 2, so it is sampled)
        U = vf("U", ["x3*(x1^2+x2^2) - x2^3", "0", "0"], 3, [(1, "<", Fraction(2))])
        p = (Fraction(1, 2),) * 3
        sampler = WordSampler(seed=0, count=30)
        rep = fixed_time_dimension([U], p, 0.5, sampler)
        assert (rep.dimension, rep.ideal_rank, rep.certificate) == (0, 0, "sampled")
        s = sampled_fixed_time([U], rep.reached, sampler)
        diffs = np.array(s.vectors[1:]) - np.array(s.vectors[0])
        assert 0 < np.abs(diffs).max() < 1e-9
        # ranked against the largest difference, the noise would count
        assert s.dimension == 0 and svd_rank(diffs, FLOW_REL_TOL) == 1

    def test_sampled_never_above_zero_time_rank(self, vf):
        # L0(p) is the fixed-time orbit's tangent, so a larger sampled rank is a bug
        families = zero_time_certified_families(vf)
        assert len(families) >= 14
        sampler = WordSampler(seed=21, count=12, max_len=3, max_time=0.4)
        for fam, filt in families:
            for p in itertools.product((-1, 0, 1), repeat=fam[0].dim):
                sampled = sampled_fixed_time(fam, p, sampler).dimension
                assert sampled <= liealg.fixed_time_ideal_rank(filt, p).ideal_rank, (fam, p)

    def test_uncertified_families_sample(self, walked):
        rep = fixed_time_dimension(preset_family("half-plane-translations"), (0, 0), 0.0,
                                   WordSampler(seed=8, count=30, max_time=0.3))
        assert rep.certificate == "sampled" and walked == [30]

    def test_bracket_rank_n_is_the_orbit_dimension(self, monkeypatch):
        calls = []
        monkeypatch.setattr(orbits, "sampled_orbit_dimension",
                            lambda *a: calls.append(a) or 1)
        family = preset_family("half-plane-translations")
        sampler = WordSampler(seed=8, count=30, max_time=0.3)
        rep = fixed_time_dimension(family, (0, 0), 0.0, sampler)
        assert rep.orbit_dimension_at_reached == 2 and calls == []
        # only X2 is defined at (3, 4): rank 1, so the orbit is sampled
        rep = fixed_time_dimension(family, (3, 4), 0.0, sampler)
        assert rep.orbit_dimension_at_reached == 1 and len(calls) == 1


class TestOneRule:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_fixed_time_reads_the_orbit_as_orbit_dimension_does(self, name):
        # the same rule and sampler: the orbit dimension at the reached point
        # is orbit_dimension's, and the fixed-time orbit lies inside the orbit
        family = preset_family(name)
        sampler = WordSampler(seed=3, count=16, max_len=3, max_time=0.4)
        for p in itertools.product((Fraction(-1, 2), Fraction(1)), repeat=family[0].dim):
            rep = fixed_time_dimension(family, p, 0.5, sampler)
            orbit = orbit_dimension(family, rep.reached, sampler)
            assert orbit.dimension == rep.orbit_dimension_at_reached, p
            assert rep.dimension <= orbit.dimension, p


class TestChow:
    def test_shear_positive_at_depth_two(self, vf):
        fam = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1"], 2)]
        rep = chow_verdict(fam, [(0, 0), (1, 1), (-2, 5)], 2)
        assert rep.bracket_generating
        assert "joinable" in rep.verdict

    def test_full_sampled_rank_without_certificate(self, vf):
        # the line x2 = 1/3 is invariant and the Lie rank there is 1, but
        # no sample lies on it
        fam = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x2-1/3"], 2)]
        rep = chow_verdict(fam, [(0, 0), (1, 1), (-2, 3)], 2)
        assert not rep.bracket_generating
        assert rep.failing_samples == ()
        assert "no module certificate" in rep.verdict

    def test_diag_not_established(self, diag):
        rep = chow_verdict(diag, [(0, 0), (1, 1)], 3)
        assert not rep.bracket_generating
        assert rep.failing_samples == ((0, 0),)

    def test_flat_family_gap_reported(self, flat):
        rep = chow_verdict(
            flat,
            [(-1, 0), (0, 0), (1, 0)],
            8,
            orbit_sampler=WordSampler(seed=13, count=400, max_len=8, max_time=1.5),
        )
        assert not rep.bracket_generating
        assert rep.sampled_orbit_dims == (2, 2)
        assert "one-sided" in rep.verdict  # never claims non-controllability


class TestSteering:
    def test_corner_case_from_formula(self):
        u1, u2, err = steer_linear((0, 0), (1, 1), 1.0)
        assert u1 == pytest.approx(3.0, abs=1e-12)
        assert u2 == pytest.approx(-1.0, abs=1e-12)
        assert err < 1e-8

    def test_loops_exist(self):
        u1, u2, err = steer_linear((1, 1), (1, 1), 1.0)
        assert abs(u1) > 1e-9 and abs(u2) > 1e-9
        assert err < 1e-8

    def test_random_targets_land(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            a = tuple(rng.uniform(-2, 2, size=2))
            b = tuple(rng.uniform(-2, 2, size=2))
            T = float(rng.uniform(0.2, 2.0))
            _, _, err = steer_linear(a, b, T)
            assert err < 1e-8

    def test_zero_time_rejected(self):
        with pytest.raises(ValueError):
            steer_linear((0, 0), (1, 1), 0.0)


class TestSignPatterns:
    def test_diag_words_preserve_signs(self, diag):
        def pattern(p):
            return tuple(0 if abs(x) < 1e-12 else (1 if x > 0 else -1) for x in p)

        for i, p in enumerate(NINE):
            ref = pattern(p)
            for w in WordSampler(seed=60 + i, count=200).words(2):
                assert pattern(apply_word(diag, w, p)) == ref
