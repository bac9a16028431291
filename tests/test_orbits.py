import itertools
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from vfkit import cli, fields, frobenius, liealg, linalg, orbits, vectorfield
from vfkit.distributions import Distribution
from vfkit.expr import parse, poly_coeff_dict
from vfkit.fields import DomainExitError, FlowError, apply_word, apply_words
from vfkit.presets import PRESETS, steer_linear
from vfkit.systems import parse_system
from vfkit.orbits import (
    FIRST_WORDS,
    WordSampler,
    chow_verdict,
    fixed_time_dimension,
    nagano_certified,
    orbit_dimension,
    sampled_orbits,
    zero_sum_words,
)
from vfkit.linalg import FLOW_REL_TOL, affine_rank, svd_rank

from conftest import fixed_time_ranks, lie_rank, spy_brackets

GOLDEN = pathlib.Path(__file__).parent / "golden"


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
        for w in zero_sum_words(WordSampler(seed=1, count=50).words(3)):
            assert sum(t for _, t in w) == 0.0

    def test_lengths_within_bounds(self):
        for w in WordSampler(seed=3, count=100, max_len=4).words(2):
            assert 1 <= len(w) <= 4

    @pytest.mark.parametrize("constraint", ["free", "zero-sum"])
    def test_draw_is_the_word_list(self, constraint):
        s = WordSampler(seed=7, count=60, max_len=5)
        made = zero_sum_words if constraint == "zero-sum" else list
        assert made(s.draw(3)) == made(s.words(3))
        # a prefix needs only its own words
        assert made(itertools.islice(s.draw(3), 10)) == made(s.words(3))[:10]


def _generator_words(sampler, n_fields, zero_sum=False):
    """The words as numpy's ``Generator`` draws them: three calls per word;
    with ``zero_sum``, each last time is minus numpy's sum of the others."""
    rng = np.random.default_rng(sampler.seed)
    words = []
    for _ in range(sampler.count):
        k = int(rng.integers(1, sampler.max_len + 1))
        idx = rng.integers(0, n_fields, size=k)
        times = rng.uniform(-sampler.max_time, sampler.max_time, size=k)
        if zero_sum:
            times[-1] = -float(np.sum(times[:-1]))
        words.append(tuple((int(i), float(t)) for i, t in zip(idx, times)))
    return words


def _bits(words):
    """Each step with its types and its time's exact bits (sign of zero
    included)."""
    return [[(type(i), i, type(t), t.hex()) for i, t in w] for w in words]


class TestRawStream:
    def test_words_are_numpys_over_a_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        long_zero_sum = 0
        for _ in range(150):
            sampler = WordSampler(
                seed=int(rng.integers(0, 2**31)),
                max_len=int(rng.choice([1, 2, 3, 6, 8, 12])),
                max_time=[0, 0.0, 0.5, 1.0, 1.5, 7.25, 1e-300][int(rng.integers(0, 7))],
                count=int(rng.integers(0, 40)))
            zero_sum = bool(rng.integers(0, 2))
            n_fields = int(rng.choice([1, 2, 3, 5, 7, 1000003, 2**31 + 3]))
            words = sampler.words(n_fields)
            if zero_sum:
                words = zero_sum_words(words)
                long_zero_sum += sum(len(w) >= 9 for w in words)
            assert _bits(words) == _bits(_generator_words(sampler, n_fields, zero_sum)), sampler
        # sums of 8 or more earlier steps take numpy's pairwise order
        assert long_zero_sum > 0

    @pytest.mark.parametrize("n_fields,max_len", [(1, 6), (3, 1), (1, 1)])
    def test_a_range_of_one_draws_nothing(self, n_fields, max_len):
        sampler = WordSampler(seed=9, count=30, max_len=max_len, max_time=1.0)
        words = sampler.words(n_fields)
        assert _bits(words) == _bits(_generator_words(sampler, n_fields))
        assert all(i < n_fields and 1 <= len(w) <= max_len for w in words for i, _ in w)

    @pytest.mark.parametrize("max_time", [0, 0.0])
    def test_zero_times_keep_their_sign_bits(self, max_time):
        sampler = WordSampler(seed=4, count=20, max_time=max_time)
        assert _bits(sampler.words(2)) == _bits(_generator_words(sampler, 2))
        assert _bits(zero_sum_words(sampler.words(2))) == _bits(
            _generator_words(sampler, 2, zero_sum=True))

    def test_pinned_words(self):
        assert WordSampler(seed=0, count=3, max_len=3, max_time=1.0).words(2) == [
            ((1, -0.9180529521276106), (1, -0.9669447289429418), (0, 0.6265404784005448)),
            ((1, 0.4589931219679968), (1, 0.08724998293084574)),
            ((1, 0.6317071082430643), (1, -0.9945229996597038)),
        ]
        zero_sum = zero_sum_words(WordSampler(seed=0, count=2, max_len=3, max_time=1.0).words(3))
        assert zero_sum == [
            ((1, -0.9180529521276106), (1, -0.9669447289429418), (0, 1.8849976810705524)),
            ((2, 0.4589931219679968), (1, -0.4589931219679968)),
        ]

    def test_errors_come_at_the_first_word(self):
        cases = [
            (WordSampler(seed=0, max_time=1e308), 2, OverflowError),
            (WordSampler(seed=0, max_time=float("inf")), 2, OverflowError),
            (WordSampler(seed=0), 2**32, ValueError),
            (WordSampler(seed=0, max_len=0), 2, ValueError),
        ]
        for sampler, n_fields, error in cases:
            words = sampler.draw(n_fields)  # lazy: nothing is drawn yet
            with pytest.raises(error):
                next(words)
        # numpy raises the same for a non-finite range
        with pytest.raises(OverflowError):
            _generator_words(WordSampler(seed=0, max_time=1e308), 2)
        # no word, no error
        assert WordSampler(seed=0, count=0, max_len=0).words(2) == []

    def test_draw_is_lazy(self, monkeypatch):
        fetched = []
        real = np.random.PCG64

        class Counted:
            def __init__(self, seed):
                self.bits = real(seed)

            def random_raw(self, size):
                fetched.append(size)
                return self.bits.random_raw(size)

        monkeypatch.setattr(np.random, "PCG64", Counted)
        words = WordSampler(seed=1, count=1000, max_len=8).draw(2)
        assert fetched == []
        first = [next(words) for _ in range(3)]
        assert len(fetched) == 1  # one chunk covers three words
        assert first == WordSampler(seed=1, count=3, max_len=8).words(2)


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
        (a,) = sampled_orbits(diag, [(1, 1)], [WordSampler(seed=11, count=50)])
        (b,) = sampled_orbits(diag, [(1, 1)], [WordSampler(seed=11, count=50)])
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
            for filt in [liealg.certify(liealg.filtration(fam))] if nagano_certified(filt)]


# the 2-D presets with closed-form flows; the ODE flows of vanishing-pair
# and mixed-degree-pair blow up and take seconds per point
CLOSED_FORM_PLANE = ["nine-orbits", "hyperbola-fixed-time", "one-sided-flat",
                     "two-sided-flat", "linear-shear", "quadratic-shear",
                     "double-integrator", "half-plane-translations"]


@pytest.fixture
def walked(monkeypatch):
    """The number of words of every pushforward walk made through ``fields``."""
    sizes = []
    real = fields.pushforward_along_words

    def counted(family, words, X, points):
        sizes.append(len(words))
        return real(family, words, X, points)

    monkeypatch.setattr(fields, "pushforward_along_words", counted)
    return sizes


def every_word_rank(family, point, sampler):
    """The span rank of the generator values at the point and of their
    pushforwards along every word of the sampler, walked in one call."""
    words = sampler.words(len(family))
    pushed = fields.pushforward_along_words(family, words, [family] * len(words),
                                            [point] * len(words))
    vectors = [fields.value_float(X, point) for X in family if X.domain.contains(point)]
    vectors += [v for vs in pushed if not isinstance(vs, FlowError) for v in vs if v is not None]
    return svd_rank(vectors, FLOW_REL_TOL)


class TestDimensionOnly:
    @pytest.mark.parametrize("name", CLOSED_FORM_PLANE)
    def test_same_dimension_as_every_word(self, name):
        # no word after rank n raises it, so stopping there keeps the dimension
        family = list(parse_system(PRESETS[name].system_text).fields)
        grid = [(Fraction(i, 2), Fraction(j, 2)) for i in (-2, 0, 1) for j in (-1, 2)]
        for p, seed in itertools.product(grid, (0, 1)):
            s = WordSampler(seed=seed, count=60, max_len=8, max_time=1.5)
            (walk,) = sampled_orbits(family, [p], [s])
            if isinstance(walk, DomainExitError):
                assert not any(X.domain.contains(p) for X in family), p
                continue
            assert walk.dimension == every_word_rank(family, p, s), p

    def test_stops_once_the_rank_is_full(self, walked):
        family = parse_system(PRESETS["one-sided-flat"].system_text).fields
        s = WordSampler(seed=30, count=400, max_len=8, max_time=1.5)
        assert sampled_orbits(family, [(-1, 0)], [s])[0].dimension == 2
        assert walked == [FIRST_WORDS]

    def test_walks_every_word_below_full_rank(self, flat, walked):
        # short words never leave x1 <= 0, where the orbit looks 1-D
        s = WordSampler(seed=0, count=200)
        (walk,) = sampled_orbits(flat, [(-3, 0)], [s])
        assert (walk.dimension, walk.words_used + walk.words_skipped) == (1, 200)
        assert walked == [FIRST_WORDS, 200 - FIRST_WORDS]
        walked.clear()
        assert orbit_dimension(flat, (-3, 0), s).dimension == 1
        assert walked == [FIRST_WORDS, 200 - FIRST_WORDS]

    def test_every_word_exits(self, vf, walked):
        # a strip too thin for any sampled step: the generator value at the
        # point is the only vector, and every word counts as skipped
        strip = [vf("X", ["1", "0"], 2, [(1, ">", 0), (1, "<", Fraction(1, 10**9))])]
        p = (Fraction(1, 2 * 10**9), 0)
        (walk,) = sampled_orbits(strip, [p], [WordSampler(seed=0, count=50)])
        assert (walk.dimension, walk.words_used, walk.words_skipped) == (1, 0, 50)
        assert walked == [FIRST_WORDS, 50 - FIRST_WORDS]


class TestWordsEvaluatedOnce:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The name of the field of every value read through a compiled
        evaluator while the test runs."""
        calls = []
        real = vectorfield._compile_value

        def spy(X):
            value = real(X)
            return lambda p: calls.append(X.name) or value(p)

        monkeypatch.setattr(vectorfield, "_compile_value", spy)
        return calls

    WORDS = ["X1", "X2", "[X2,X1]", "[X1,[X2,X1]]", "[X1,[X1,[X2,X1]]]"]

    def test_orbit_dimension_reads_each_word_once(self, vf, evaluated):
        # the rank reaches 3 only at depth 4, so three depth cuts read
        # [X2,X1]; each word is evaluated at the depth that builds it
        family = [vf("X1", ["1", "0", "0"], 3), vf("X2", ["0", "1", "x1^3"], 3)]
        rep = orbit_dimension(family, (0, 0, 0), WordSampler(seed=0))
        assert (rep.certificate, rep.dimension) == ("bracket-rank", 3)
        assert sorted(evaluated) == sorted(self.WORDS)

    def test_fixed_time_dimension_reads_each_word_once(self, vf, evaluated):
        # the zero-time ideal's generators, derived words and the Lie rank
        # at the reached point all read one evaluation per word
        family = [vf("X1", ["1", "0", "0"], 3), vf("X2", ["0", "1", "x1^3"], 3)]
        rep = fixed_time_dimension(family, (0, 0, 0), 0.5, WordSampler(seed=0))
        assert (rep.certificate, rep.dimension, rep.orbit_dimension_at_reached) == (
            "zero-time-ideal", 2, 3)
        assert sorted(evaluated) == sorted(self.WORDS)


class TestNagano:
    def test_cubic_orbit_walks_no_word(self, cubic, flow_steps):
        # rank n off the axis is the dimension before Nagano is asked; on the
        # axis the rank is 1 and Nagano decides
        sampler = WordSampler(seed=0)
        rep = orbit_dimension(cubic, (Fraction(3, 10), Fraction(7, 10)), sampler)
        assert (rep.dimension, rep.linf_rank, rep.certificate) == (2, 2, "bracket-rank")
        assert (rep.vectors, rep.words_used, rep.words_skipped) == ((), 0, 0)
        axis = orbit_dimension(cubic, (Fraction(1, 2), 0), sampler)
        assert (axis.dimension, axis.certificate) == (1, "nagano")
        assert flow_steps == []

    def test_fixed_time_reads_the_orbit_from_the_filtration(self, cubic, monkeypatch):
        calls = []
        monkeypatch.setattr(orbits, "sampled_orbits", lambda *a: calls.append(a))
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
            for p, s in zip(grid, sampled_orbits(fam, grid, [sampler] * len(grid))):
                assert s.dimension <= lie_rank(fam, p), (fam, p)

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
        filt = liealg.certify(liealg.filtration(quadratic, 4))
        assert filt.certificate is None and not nagano_certified(filt)
        assert filt.note == ("module search stopped at depth 1: membership system "
                             "has 56 unknowns, more than 10")
        # at (1, 1) its bracket rank is n, which is the orbit dimension for
        # any smooth family
        rep = orbit_dimension(quadratic, (1, 1), WordSampler(seed=0, count=10))
        assert (rep.certificate, rep.dimension, rep.vectors) == ("bracket-rank", 2, ())
        # below rank n, with a generator nonzero, the uncertified family samples
        spatial = [vf("X1", ["x2", "0", "0"], 3), vf("X2", ["0", "x1^2", "0"], 3)]
        assert liealg.certify(liealg.filtration(spatial, 4)).certificate is None
        rep = orbit_dimension(spatial, (1, 1, 0), WordSampler(seed=0, count=10))
        assert (rep.certificate, rep.linf_rank, rep.words_used + rep.words_skipped) == (
            "sampled", 2, 10)


class TestFixedTime:
    def test_hyperbola_dimension_and_invariant(self, diag):
        rep = fixed_time_dimension(diag, (1, 1), 0.0, WordSampler(seed=3, count=200))
        assert rep.dimension == 1
        assert rep.orbit_dimension_at_reached - rep.dimension == 1
        product = parse("x1*x2", 2)
        words = zero_sum_words(WordSampler(seed=3, count=200).words(2))
        for q in apply_words(diag, words, [rep.reached] * len(words)):
            assert abs(product.eval_float(q) - product.eval_float(rep.reached)) < 1e-8

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
        assert (rep.dimension, rep.certificate) == (0, "sampled")
        assert rep.words_used + rep.words_skipped == 150
        # only X2 is defined right of x1 = 1, and a zero-sum word of it is the identity
        words = zero_sum_words(WordSampler(seed=2, count=150).words(2))
        landed = [q for q in apply_words(partial, words, [rep.reached] * len(words))
                  if isinstance(q, np.ndarray)]
        assert landed and all(np.max(np.abs(q - rep.reached)) < 1e-12 for q in landed)

    @pytest.fixture
    def seed_family(self, vf):
        return [vf("X1", ["1"], 1, [(1, "<", Fraction(1))]),
                vf("X2", ["1"], 1, [(1, ">", Fraction(1, 2))])]

    def test_seed_falls_back_to_two_half_steps(self, seed_family, monkeypatch):
        # from 2/5 at T = 4/5, X1 alone leaves x1 < 1 and X2 starts outside
        # x1 > 1/2; (X1, X1) leaves x1 < 1 too, and (X1, X2) reaches 6/5
        tried = []
        real = fields.apply_word
        monkeypatch.setattr(fields, "apply_word",
                            lambda f, w, p: tried.append(list(w)) or real(f, w, p))
        rep = fixed_time_dimension(seed_family, (Fraction(2, 5),), 0.8,
                                   WordSampler(seed=0, count=20))
        assert rep.reached == (1.2000000000000002,)
        assert tried == [[(0, 0.8)], [(1, 0.8)], [(0, 0.4), (0, 0.4)], [(0, 0.4), (1, 0.4)]]

    def test_no_seed_word_is_a_domain_exit(self, seed_family):
        # X1 alone leaves x1 < 1 from 99/100 in one step of 1 and in two of 1/2
        with pytest.raises(DomainExitError) as err:
            fixed_time_dimension(seed_family[:1], (Fraction(99, 100),), 1.0, WordSampler(seed=0))
        assert str(err.value) == "no net-time-1.0 seed word succeeds from (99/100)"

    def test_integrator_fixed_time_full(self, vf):
        integrator = [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)]
        rep = fixed_time_dimension(integrator, (0, 0), 1.0, WordSampler(seed=6, count=150))
        assert rep.dimension == 2

    def test_one_filtration_per_call(self, diag, monkeypatch):
        calls = []
        original = liealg._filtration_by_depth

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # the walk and ``filtration`` both build through this one builder
        monkeypatch.setattr(liealg, "_filtration_by_depth", counted)
        rep = fixed_time_dimension(diag, (1, 1), 0.0, WordSampler(seed=3, count=40))
        assert rep.orbit_dimension_at_reached == 2
        assert len(calls) == 1

    def test_sampled_dimension_callers_build_no_extra_filtration(self, flat, monkeypatch):
        calls = []
        original = liealg._filtration_by_depth

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # each caller builds the one filtration whose words it reads (the
        # bracket-rank and Nagano tests), and no other; the walk and
        # ``filtration`` both build through this one builder
        monkeypatch.setattr(liealg, "_filtration_by_depth", counted)
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
    """The Nagano-certified families whose time extension is certified
    too: their fixed-time dimension is the exact rank of L0."""
    return [(fam, filt) for fam, filt in analytic_certified_families(vf)
            if nagano_certified(liealg.certify(liealg.filtration(liealg.time_extended(fam))))]


def preset_family(name):
    return list(parse_system(PRESETS[name].system_text).fields)


class TestZeroTimeIdeal:
    def test_generator_duplicate_gives_the_exact_rank(self, vf):
        # [X2, X1] = -X1 while X2 - X1 vanishes at 1: the duplicate alone
        # makes the rank n, which is the dimension for any smooth family
        rep = fixed_time_dimension([vf("X1", ["1"], 1), vf("X2", ["x1"], 1)], (1,), 0.0,
                                   WordSampler(seed=0, count=20))
        assert rep.reached == (1.0,)
        assert (rep.dimension, rep.ideal_rank, rep.certificate) == (1, 1, "bracket-rank")

    @pytest.mark.parametrize("name,dim", [("vanishing-pair", 2), ("umbrella-ideal", 0),
                                          ("isolated-leaf", 2)])
    def test_certified_presets_walk_no_pushforward(self, name, dim, walked, flow_steps):
        family = preset_family(name)
        p = tuple(Fraction(1, 2) for _ in range(family[0].dim))
        rep = fixed_time_dimension(family, p, 0.5, WordSampler(seed=0, count=12, max_len=3))
        assert walked == []
        # a rank of n needs no certificate; below it Nagano decides
        certificate = "bracket-rank" if dim == len(p) else "zero-time-ideal"
        assert (rep.dimension, rep.ideal_rank, rep.certificate) == (dim, dim, certificate)
        # the seed word's one step is the only flow, and no sampled word is walked
        assert [t for _, t in flow_steps] == [0.5]
        assert (rep.words_used, rep.words_skipped) == (0, 0)

    def test_uncertified_single_field_samples_zero(self, vf):
        # one field: U's flow carries U to itself, so the pushforwards along
        # any word differ from U only by integration noise (U is not
        # certified on x1 < 2, so it is sampled)
        U = vf("U", ["x3*(x1^2+x2^2) - x2^3", "0", "0"], 3, [(1, "<", Fraction(2))])
        p = (Fraction(1, 2),) * 3
        sampler = WordSampler(seed=0, count=30)
        rep = fixed_time_dimension([U], p, 0.5, sampler)
        assert (rep.dimension, rep.ideal_rank, rep.certificate) == (0, 0, "sampled")
        (s,) = sampled_orbits([U], [rep.reached], [sampler])
        diffs = np.array(s.vectors[1:]) - np.array(s.vectors[0])
        assert 0 < np.abs(diffs).max() < 1e-9
        # ranked against the largest difference, the noise would count
        assert affine_rank(s.vectors, FLOW_REL_TOL) == 0
        assert svd_rank(diffs, FLOW_REL_TOL) == 1

    def test_sampled_never_above_zero_time_rank(self, vf):
        # L0(p) is the fixed-time orbit's tangent, so a larger sampled rank is a bug
        families = zero_time_certified_families(vf)
        assert len(families) >= 14
        sampler = WordSampler(seed=21, count=12, max_len=3, max_time=0.4)
        for fam, filt in families:
            grid = list(itertools.product((-1, 0, 1), repeat=fam[0].dim))
            for p, s in zip(grid, sampled_orbits(fam, grid, [sampler] * len(grid), affine_rank)):
                assert s.dimension <= fixed_time_ranks(fam, p)[0], (fam, p)

    def test_ranked_at_the_start(self):
        # the rank is taken at the start (p, 0), not at the point the seed
        # word reaches: from (0, 0), where bump(x1) is flat, the ideal has
        # rank 1 and the answer is sampled, though the seed reaches (1/2, 0);
        # from (-1/2, 0), the two-sided-flat-orbit-fixed-time golden, it has
        # rank n, though the seed reaches the flat (0, 0)
        family = preset_family("two-sided-flat")
        rep = fixed_time_dimension(family, (0, 0), 0.5, WordSampler(seed=7))
        assert rep.reached == (0.5, 0.0)
        assert (rep.certificate, rep.dimension, rep.ideal_rank) == ("sampled", 2, 1)
        golden = json.loads((GOLDEN / "two-sided-flat-orbit-fixed-time.json").read_text())
        rep = fixed_time_dimension(family, (Fraction(-1, 2), 0), 0.5, WordSampler(seed=7))
        assert rep.reached == (0.0, 0.0)
        assert (rep.certificate, rep.dimension, rep.ideal_rank) == tuple(
            golden["results"][k] for k in ("certificate", "dimension", "ideal_rank")) == (
            "bracket-rank", 2, 2)
        assert (rep.words_used, rep.words_skipped) == (0, 0)

    @pytest.mark.parametrize("x2,scale,orbit_dim", [("0,x2", 1e-10, 2), ("0,x2", 1e12, 2),
                                                     ("2*x1,0", 1e-10, 1),
                                                     ("2*x1,0", 1e12, 1)])
    def test_float_rank_does_not_depend_on_the_scale(self, vf, x2, scale, orbit_dim):
        # Y's words (s, 0, 1) and X2's value with a last coordinate 1: their
        # float rank against the constant 1 drops at a small s, and for
        # parallel X1, X2 at a large one too, while L0 = R*(X2 - X1) has
        # rank 1 at any s
        family = [vf("X1", ["x1", "0"], 2), vf("X2", x2.split(","), 2)]
        rep = fixed_time_dimension(family, (scale, scale), 0.0, WordSampler(seed=0, count=10))
        assert rep.reached == (scale, scale)
        assert (rep.dimension, rep.ideal_rank, rep.certificate) == (1, 1, "zero-time-ideal")
        assert (rep.orbit_dimension_at_reached, rep.dimension_gap) == (orbit_dim, orbit_dim - 1)

    def test_uncertified_families_sample(self, walked):
        rep = fixed_time_dimension(preset_family("half-plane-translations"), (0, 0), 0.0,
                                   WordSampler(seed=8, count=30, max_time=0.3))
        assert rep.certificate == "sampled" and walked == [30]

    def test_bracket_rank_n_is_the_orbit_dimension(self, monkeypatch):
        # the walk's span rank is read only where the bracket rank is not exact
        calls = []
        monkeypatch.setattr(orbits, "svd_rank", lambda *a: calls.append(a) or 1)
        family = preset_family("half-plane-translations")
        sampler = WordSampler(seed=8, count=30, max_time=0.3)
        rep = fixed_time_dimension(family, (0, 0), 0.0, sampler)
        assert rep.certificate == "sampled"
        assert rep.orbit_dimension_at_reached == 2 and calls == []
        # only X2 is defined at (3, 4): rank 1, so the orbit is sampled
        rep = fixed_time_dimension(family, (3, 4), 0.0, sampler)
        assert rep.orbit_dimension_at_reached == 1 and len(calls) == 1

    def test_one_walk_gives_both_sampled_bounds(self, walked):
        # at (3, 4) neither dimension is exact: one walk of the 30 free
        # words gives the fixed-time bound and the orbit's
        rep = fixed_time_dimension(preset_family("half-plane-translations"), (3, 4), 0.0,
                                   WordSampler(seed=8, count=30, max_time=0.3))
        assert (rep.certificate, rep.dimension, rep.ideal_rank) == ("sampled", 0, 0)
        assert rep.orbit_dimension_at_reached == 1
        # only words of X2 alone stay where X1 is undefined
        assert (rep.words_used, rep.words_skipped) == (5, 25)
        assert walked == [30]


CENSUS = pathlib.Path(__file__).parent / "data" / "fixed-time-census-seed7.json"


def zero_sum_bound(family, point, sampler):
    """The sampled fixed-time dimension as a walk of zero-sum words gives it:
    the affine rank of the generator values at the point and of their
    pushforwards along the sampler's words made zero-sum."""
    words = zero_sum_words(sampler.words(len(family)))
    pushed = fields.pushforward_along_words(family, words, [family] * len(words),
                                            [point] * len(words))
    values = [fields.value_float(X, point) for X in family if X.domain.contains(point)]
    found = [v for vs in pushed if not isinstance(vs, FlowError) for v in vs if v is not None]
    return affine_rank(np.vstack(values + found), FLOW_REL_TOL)


class TestFixedTimeCensus:
    def test_answers_and_the_zero_sum_bound(self):
        # every preset, starts in {-1/2, 0, 1/2}^n, T in {1/2, 1}, seed 7:
        # the answers ranked at the start (p, 0), with the dimensions as a
        # walk of zero-sum words gave them, and, where the answer is sampled,
        # that walk's bound is the free walk's
        sampler, sampled = WordSampler(seed=7), 0
        for name, point, T, *answer in json.loads(CENSUS.read_text()):
            family = preset_family(name)
            p = tuple(Fraction(x) for x in point.split(","))
            rep = fixed_time_dimension(family, p, Fraction(T), sampler)
            case = (name, point, T)
            assert [rep.dimension, rep.orbit_dimension_at_reached, rep.ideal_rank,
                    rep.certificate] == answer, case
            if rep.certificate == "sampled":
                sampled += 1
                assert zero_sum_bound(family, rep.reached, sampler) == rep.dimension, case
        assert sampled == 36

    def test_lie_and_orbit_rank_the_same_ideal(self, tmp_path, capsys):
        # ``lie --fixed-time-ideal`` and ``orbit --fixed-time`` both rank the
        # zero-time ideal at the exact start (p, 0), so they agree everywhere
        def results(*argv):
            assert cli.main([*argv, "--format", "json"]) == 0
            return json.loads(capsys.readouterr().out)["results"]

        ideal_ranks = {}
        for name, point, T, *_ in json.loads(CENSUS.read_text()):
            system = tmp_path / f"{name}.vf"
            if (name, point) not in ideal_ranks:
                system.write_text(PRESETS[name].system_text)
                ideal_ranks[name, point] = results(
                    "lie", "--system", str(system), f"--point={point}",
                    "--fixed-time-ideal")["fixed_time_ideal"]["ideal_rank"]
            orbit = results("orbit", "--system", str(system), f"--point={point}",
                            "--fixed-time", T, "--seed", "7")
            assert orbit["ideal_rank"] == ideal_ranks[name, point], (name, point, T)

    def test_exact_polynomial_answers_rank_no_float(self, monkeypatch):
        # a polynomial family is exact at a rational start, so no rank behind
        # an exact certificate goes through ``svd_rank``
        calls, real = [], linalg.svd_rank

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linalg, "svd_rank", spy)
        monkeypatch.setattr(orbits, "svd_rank", spy)
        sampler, exact = WordSampler(seed=7), 0
        for name, point, T, *_ in json.loads(CENSUS.read_text()):
            family = preset_family(name)
            if not all(X.is_polynomial() for X in family):
                continue
            calls.clear()
            p = tuple(Fraction(x) for x in point.split(","))
            if fixed_time_dimension(family, p, Fraction(T), sampler).certificate != "sampled":
                exact += 1
                assert calls == [], (name, point, T)
        assert exact == 348


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
            # the orbit dimension is the same at the start p
            at_start = orbit_dimension(family, p, sampler)
            if "sampled" not in (at_start.certificate, rep.certificate):
                assert at_start.dimension == rep.orbit_dimension_at_reached, p


class TestRankFirst:
    """A bracket rank of n is the dimension for any smooth family, so words
    stop at the first depth that reaches it and no module search runs;
    below n the search runs once per filtration."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """The module searches run: ("closure", depth cap) per stabilization
        search."""
        runs = []
        closure = liealg._module_closure
        monkeypatch.setattr(liealg, "_module_closure",
                            lambda levels, *a: runs.append(("closure", len(levels)))
                            or closure(levels, *a))
        return runs

    @pytest.fixture
    def brackets(self, monkeypatch):
        """The inner word of every bracket built, as the components that
        the bracket kernel reads."""
        inner = []
        spy_brackets(monkeypatch, lambda xs, ys: inner.append(ys))
        return inner

    def test_full_rank_runs_no_module_search(self, searches, brackets):
        # vanishing-pair is certified only by the module search, which its
        # full-rank points no longer need
        family = preset_family("vanishing-pair")
        p = (Fraction(1, 2), Fraction(1, 2))
        sampler = WordSampler(seed=0, count=12, max_len=3)
        rep = orbit_dimension(family, p, sampler)
        assert (rep.dimension, rep.linf_rank, rep.certificate) == (2, 2, "bracket-rank")
        rep = fixed_time_dimension(family, p, 0.5, sampler)
        assert (rep.dimension, rep.orbit_dimension_at_reached, rep.certificate) == (
            2, 2, "bracket-rank")
        assert searches == []

    def test_cubic_builds_no_bracket(self, cubic, searches, brackets):
        # X1 and X2 span at the point: depth 1 already has rank n
        rep = orbit_dimension(cubic, (Fraction(5, 16), Fraction(6, 16)), WordSampler(seed=0))
        assert (rep.dimension, rep.linf_rank, rep.certificate) == (2, 2, "bracket-rank")
        assert brackets == [] and searches == []

    def test_isolated_leaf_builds_depth_two_only(self, searches, brackets):
        family = preset_family("isolated-leaf")
        p = (Fraction(1, 2), Fraction(3, 16), Fraction(1, 8))
        rep = orbit_dimension(family, p, WordSampler(seed=0))
        assert (rep.dimension, rep.linf_rank, rep.certificate) == (3, 3, "bracket-rank")
        # one bracket, [X2, X1] of depth 2: [X_i, X_i] = 0, and [X1, X2] is
        # -[X2, X1]
        assert brackets == [[poly_coeff_dict(c, 3) for c in family[0].components]]
        assert searches == []

    def test_isolated_leaf_slice_is_nagano(self):
        # on x1 = 0 the rank is 2 < n, and symbolic closure certifies it
        family = preset_family("isolated-leaf")
        rep = orbit_dimension(family, (0, Fraction(3, 16), Fraction(1, 8)), WordSampler(seed=0))
        assert (rep.dimension, rep.linf_rank, rep.certificate) == (2, 2, "nagano")
        assert (rep.vectors, rep.words_used, rep.words_skipped) == ((), 0, 0)

    def test_fixed_time_searches_once_below_full_rank(self, cubic, searches):
        # on the axis both the ideal and the Lie algebra have rank 1 < n:
        # the time extension's one stabilization search serves both
        rep = fixed_time_dimension(cubic, (Fraction(1, 2), 0), 0.3,
                                   WordSampler(seed=0, count=10))
        assert (rep.dimension, rep.orbit_dimension_at_reached, rep.certificate) == (
            1, 1, "zero-time-ideal")
        assert searches == [("closure", 6)]

    def test_restricted_domain_runs_no_module_search(self, vf, monkeypatch):
        # Nagano needs every generator analytic on all of R^n, so on a
        # restricted domain no module certificate could make a rank exact
        systems = []
        real = liealg.module_contains
        monkeypatch.setattr(liealg, "module_contains", lambda *a: systems.append(a) or real(*a))
        domain = [(1, ">", Fraction(-5))]
        family = [vf("X1", ["1", "0"], 2, domain), vf("X2", ["0", "x1^2*x2+x2^3"], 2, domain)]
        p, sampler = (Fraction(1, 2), 0), WordSampler(seed=0, count=20)
        rep = orbit_dimension(family, p, sampler)
        assert (rep.dimension, rep.linf_rank, rep.certificate, rep.words_used) == (
            1, 1, "sampled", 20)
        rep = fixed_time_dimension(family, p, 0.5, sampler)
        assert (rep.dimension, rep.orbit_dimension_at_reached, rep.ideal_rank,
                rep.certificate, rep.words_used) == (1, 1, 1, "sampled", 20)
        assert systems == []

    def test_frobenius_searches_once_across_samples(self, cubic, searches):
        # rank 1 < n at the three samples on the axis, each decided by Nagano
        grid = list(itertools.product((-1, 0, 1), repeat=2))
        verdict = frobenius.frobenius_verdict(Distribution(tuple(cubic)), grid)
        assert verdict.ranks == (2, 1, 2, 2, 1, 2, 2, 1, 2)
        assert (verdict.module_involutive, verdict.integrable) == (False, "undetermined")
        assert searches == [("closure", 6)]

    def test_depth_cap_checked_before_full_rank(self, cubic, brackets):
        p = (Fraction(5, 16), Fraction(6, 16))
        sampler = WordSampler(seed=0, count=10)
        for cap in (0, 11):
            with pytest.raises(liealg.LieAlgebraError):
                orbit_dimension(cubic, p, sampler, cap)
            with pytest.raises(liealg.LieAlgebraError):
                fixed_time_dimension(cubic, p, 0.3, sampler, cap)
        assert brackets == []


THREE = "system three dim 2\nfield X1 = (x1, 0)\nfield X2 = (0, x2)\nfield X3 = (0, 0)\n"


class TestFloatStart:
    """A float start is ranked at the Fraction it equals, so its x2 = 1e-12
    beside x1 = 1, which a float rank drops, still counts; every walk starts
    from the floats as given."""

    @pytest.mark.parametrize("text, fixed", [
        (THREE, (2, 2, 2, "bracket-rank")),
        # the hyperbolas x1*x2 = const are the fixed-time orbits
        (PRESETS["nine-orbits"].system_text, (1, 2, 1, "zero-time-ideal")),
    ], ids=["three", "nine-orbits"])
    def test_float_start_ranks_exactly(self, text, fixed):
        family = list(parse_system(text).fields)
        p = (1.0, 1e-12)
        rep = orbit_dimension(family, p, WordSampler(seed=7))
        assert (rep.dimension, rep.certificate, rep.linf_rank) == (2, "bracket-rank", 2)
        rep = fixed_time_dimension(family, p, 0.5, WordSampler(seed=7))
        assert (rep.dimension, rep.orbit_dimension_at_reached, rep.ideal_rank,
                rep.certificate) == fixed
        # the seed word flows X1 for 1/2: x1 scales by e^(1/2)
        assert (rep.start, rep.reached) == (p, (float(np.exp(0.5)), 1e-12))

    def test_reached_holds_python_numbers(self, diag, vf):
        rep = fixed_time_dimension(diag, (1, 0), 0.5, WordSampler(seed=7, count=20))
        assert [type(x) for x in rep.reached] == [float, float]
        # every flow fixes the origin, so the start is the reached point
        rep = fixed_time_dimension(preset_family("mixed-degree-pair"), (0, 0), 0.5,
                                   WordSampler(seed=7))
        assert rep.reached == (0, 0) and [type(x) for x in rep.reached] == [int, int]

    def test_walks_start_from_the_given_floats(self, flat, monkeypatch):
        seen, real = [], orbits.sampled_orbits
        monkeypatch.setattr(orbits, "sampled_orbits",
                            lambda fam, points, *a: seen.append(points) or real(fam, points, *a))
        p = (-0.5, 0.25)
        rep = orbit_dimension(flat, p, WordSampler(seed=0, count=10))
        assert (rep.certificate, rep.point) == ("sampled", p)
        rep = fixed_time_dimension(flat, p, 0.5, WordSampler(seed=0, count=10))
        assert rep.certificate == "sampled"
        assert seen == [[p], [rep.reached]]
        assert [type(x) for x in seen[0][0]] == [float, float]


class TestFixedPoint:
    """Where every generator is defined and exactly zero, every flow fixes
    the point: rank 0 is exact for any smooth family."""

    def test_vanishing_generators_walk_no_flow(self, monkeypatch):
        walks = []
        real = fields._walk
        monkeypatch.setattr(fields, "_walk", lambda *a: walks.append(a) or real(*a))
        family = preset_family("mixed-degree-pair")
        assert not nagano_certified(liealg.filtration(family))
        rep = orbit_dimension(family, (0, 0), WordSampler(seed=0))
        assert (rep.certificate, rep.dimension, rep.linf_rank) == ("bracket-rank", 0, 0)
        assert (rep.vectors, rep.words_used, rep.words_skipped) == ((), 0, 0)
        assert walks == []

    def test_float_pinned_zero_still_samples(self, vf):
        # bump(1/10^13) is positive, so the point is not fixed, but float
        # evaluation pins both values to 0
        family = [vf("X1", ["bump(x1)", "0"], 2), vf("X2", ["0", "bump(x1)"], 2)]
        p = (Fraction(1, 10**13), 0)
        (values,) = vectorfield.field_values(family, [p])
        assert all(v == [0.0, 0.0] for v in values)
        rep = orbit_dimension(family, p, WordSampler(seed=0, count=10))
        assert (rep.certificate, rep.linf_rank) == ("sampled", 0)
        assert rep.words_used + rep.words_skipped == 10
        assert orbits.exact_certificate(liealg.filtration(family), 0, values) is None


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

    def test_oversized_module_system_gives_no_certificate(self):
        # the words at cap 5 and degree DEFAULT_MODULE_DEGREE make a
        # membership system over membership.UNKNOWNS_CAP: the verdict says
        # so instead of raising
        fam = parse_system("system c dim 3\nfield X1 = (1, x3, x1*x2)\n"
                           "field X2 = (x2^2, 1, x1)\nfield X3 = (x3, x1^2, 1)\n").fields
        rep = chow_verdict(fam, [(0, 0, 0), (Fraction(1, 2),) * 3], 5)
        assert not rep.bracket_generating and rep.failing_samples == ()
        assert rep.verdict.startswith("full bracket rank at every sample, but no module")
        assert rep.verdict.endswith("; membership system has 9324 unknowns, more than 4000")

    def test_each_word_compiled_once_for_all_samples(self, monkeypatch):
        # linear-shear at cap 2 has the words X1, X2 and [X2,X1]: one
        # compile per component of each, however many samples there are
        compiled = []
        real = vectorfield.compile_exact
        monkeypatch.setattr(vectorfield, "compile_exact",
                            lambda expr: compiled.append(expr) or real(expr))
        rep = chow_verdict(preset_family("linear-shear"), [(0, 0), (1, 1), (-2, 3)], 2)
        assert rep.bracket_generating and rep.failing_samples == ()
        assert len(compiled) == 6

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


HALF_STEP_GRID = [(Fraction(i, 2), Fraction(j, 2)) for i in range(-2, 3) for j in range(-2, 3)]


class TestManyPoints:
    """``sampled_orbits`` walks all its points together, and each point
    keeps the dimension, vectors and counts of its own walk."""

    @pytest.mark.parametrize("name, points, sampler", [
        ("nine-orbits", NINE, lambda i: WordSampler(seed=11 + i)),
        ("one-sided-flat", HALF_STEP_GRID,
         lambda i: WordSampler(seed=30, count=400, max_len=8, max_time=1.5)),
        ("two-sided-flat", HALF_STEP_GRID,
         lambda i: WordSampler(seed=40, count=400, max_len=8, max_time=1.5)),
        ("half-plane-translations", HALF_STEP_GRID,
         lambda i: WordSampler(seed=i, count=60, max_time=1.0)),
    ], ids=["nine-orbits", "one-sided-flat", "two-sided-flat", "half-plane-translations"])
    def test_bits_of_one_point_walks(self, name, points, sampler):
        family = preset_family(name)
        samplers = [sampler(i) for i in range(len(points))]
        together = sampled_orbits(family, points, samplers)
        for p, s, both in zip(points, samplers, together):
            (alone,) = sampled_orbits(family, [p], [s])
            assert (both.dimension, both.words_used, both.words_skipped) == (
                alone.dimension, alone.words_used, alone.words_skipped), p
            assert np.array(both.vectors).tobytes() == np.array(alone.vectors).tobytes(), p

    def test_chow_marks_a_point_without_generators(self, vf):
        # no generator is defined at (1, 0); at (-1, 0) the rank is 1
        family = [vf("X1", ["1", "0"], 2, [(1, "<", Fraction(0))]),
                  vf("X2", ["0", "x2"], 2, [(1, "<", Fraction(0))])]
        rep = chow_verdict(family, [(-1, 0), (1, 0)], 2,
                           orbit_sampler=WordSampler(seed=0, count=20))
        assert rep.failing_samples == ((-1, 0), (1, 0))
        assert rep.sampled_orbit_dims == (1, -1)
        (err,) = sampled_orbits(family, [(1, 0)], [WordSampler(seed=0)])
        assert isinstance(err, DomainExitError)


@pytest.mark.parametrize("entry, bounded", [
    ("orbit_dimension", False), ("sampled_orbits", False), ("sampled_orbits", True),
    ("fixed_time_dimension", False),
], ids=["orbit_dimension", "sampled_orbits", "sampled_orbits-domain-bounded",
        "fixed_time_dimension"])
def test_point_of_another_dimension_is_rejected(vf, entry, bounded):
    # on a domain bounded by x3 < 1, a 2-coordinate point has no x3 to compare
    x3_below_1 = [(3, "<", Fraction(1))]
    # fixed_time_dimension ranks a family on R^(n+1), yet names the caller's n
    exact = entry in ("orbit_dimension", "fixed_time_dimension")
    family = ([vf("X1", ["1", "0", "0"], 3, x3_below_1), vf("X2", ["0", "1", "0"], 3, x3_below_1)]
              if bounded else preset_family("linear-shear" if exact else "nonintegrable-shear"))
    point = (Fraction(1, 2),) if exact else (0.5, 0.25)
    sampler = WordSampler(seed=0)
    call = {"orbit_dimension": lambda: orbit_dimension(family, point, sampler),
            "fixed_time_dimension": lambda: fixed_time_dimension(family, point, 0.5, sampler),
            "sampled_orbits": lambda: sampled_orbits(family, [point], [sampler])}[entry]
    with pytest.raises(ValueError, match=f"has {len(point)} coordinates, the fields have "
                                         f"{len(point) + 1}"):
        call()
