import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from vfkit import distributions, expr, vectorfield
from vfkit.distributions import (
    Distribution,
    classify_grid,
    rank_at,
    singular_locus_minors,
)
from vfkit.expr import parse
from vfkit.frobenius import frobenius_verdict
from vfkit.presets import PRESETS
from vfkit.systems import parse_system

from conftest import frac_grid, multiply_field


def _distribution(text):
    return Distribution(tuple(parse_system(text).fields))


DEFICIENT = _distribution("system d dim 2\nfield X1 = (x1, x2)\nfield X2 = (x1*x2, x2^2)\n")
ALL_ZERO = _distribution("system z dim 2\nfield X1 = (0, 0)\n")
DATA = pathlib.Path(__file__).parent / "data"
# the presets, the generic families c1-c3, a 3-D pair and the two families
# above
MINOR_CASES = {
    "pair-3d": _distribution("system p dim 3\nfield a = (x1, x2, 0)\nfield b = (0, x3, 1)\n"),
    **{name: _distribution(preset.system_text) for name, preset in PRESETS.items()},
    **{c: _distribution((DATA / f"{c}.vf").read_text()) for c in ("c1", "c2", "c3")},
    "deficient": DEFICIENT,
    "all-zero": ALL_ZERO,
}


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

    def test_generically_deficient_family(self):
        # every 2 x 2 minor is identically zero, so the rank is 1 everywhere
        # off the common zeros of the entries
        locus = singular_locus_minors(DEFICIENT)
        assert locus.generic_rank == 1
        assert [str(m) for m in locus.minors] == ["x1", "x1*x2", "x2", "x2^2"]

    def test_all_zero_family_has_rank_zero_and_no_singular_point(self):
        locus = singular_locus_minors(ALL_ZERO)
        assert locus.generic_rank == 0
        assert [str(m) for m in locus.minors] == ["1"]

    def test_soundness_verification_runs(self):
        # rank A(p) >= r exactly where some r x r minor is nonzero at p, so
        # on 200 seeded points of [-4, 4]^n (denominator 8) the rank is
        # below the generic rank exactly where every minor is zero, and
        # some point has the generic rank
        for name, D in MINOR_CASES.items():
            if D.minors_obstacle():
                continue
            locus = singular_locus_minors(D)
            rng = random.Random(20240)
            points = [tuple(Fraction(rng.randint(-32, 32), 8) for _ in range(D.dim))
                      for _ in range(200)]
            zeros = [expr.compile_exact(m) for m in locus.minors]
            ranks = [distributions.fibre_rank(p, values).rank
                     for p, values in zip(points, vectorfield.field_values(D.generators, points))]
            assert max(ranks) == locus.generic_rank, name
            for p, rank in zip(points, ranks):
                assert (rank < locus.generic_rank) == all(z(p) == 0 for z in zeros), (name, p)


class TestManyPointRanks:
    """``fibre_ranks`` reads the rank r wherever the first nonzero r x r
    minor M is nonzero at a rational point, and ranks every other point as
    ``fibre_rank`` does."""

    @pytest.fixture
    def minor_points(self, monkeypatch):
        # the minor search's calls, and every point a compiled minor is read at
        searches, read = [], []
        real_search, real_compile = distributions._nonzero_minors, distributions.compile_exact

        def search(D):
            searches.append(D)
            return real_search(D)

        def compile_minor(e):
            at = real_compile(e)
            read.append((e, []))
            return lambda p: read[-1][1].append(p) or at(p)

        monkeypatch.setattr(distributions, "_nonzero_minors", search)
        monkeypatch.setattr(distributions, "compile_exact", compile_minor)
        return searches, read

    @staticmethod
    def _one_by_one(D, points):
        values = vectorfield.field_values(D.generators, points)
        return tuple(distributions.fibre_rank(p, v).rank for p, v in zip(points, values))

    def test_equal_to_the_rank_point_by_point(self):
        # every polynomial full-domain case on a seeded grid of quarters
        # through 0 and on 100 seeded points of denominator 1 to 3: both
        # hit the singular locus, so both paths run
        rng = random.Random(4049)
        on_locus = 0
        for name, D in MINOR_CASES.items():
            if D.minors_obstacle():
                continue
            axes = {i + 1: sorted({Fraction(0)} | {Fraction(rng.randint(-8, 8), 4)
                                                   for _ in range(4)})
                    for i in range(D.dim)}
            scattered = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(D.dim)) for _ in range(100)]
            grid = distributions.grid_points(axes, D.dim)
            assert classify_grid(D, axes).ranks == self._one_by_one(D, grid), name
            generic = singular_locus_minors(D).generic_rank
            for points in (grid, scattered):
                want = self._one_by_one(D, points)
                assert distributions.fibre_ranks(D, points) == want, name
                on_locus += sum(rank < generic for rank in want)
        assert on_locus > 100

    def test_a_vanishing_minor_falls_back_to_the_rank_there(self, vf, minor_points):
        # M = x1 vanishes at (0, 5), where X2 and X3 still span the plane
        D = Distribution((vf("X1", ["x1", "0"], 2), vf("X2", ["0", "1"], 2),
                          vf("X3", ["1", "0"], 2)))
        _, read = minor_points
        assert distributions.fibre_ranks(D, [(0, 5), (Fraction(1, 2), 5)]) == (2, 2)
        assert [(str(m), points) for m, points in read] == [
            ("x1", [(0, 5), (Fraction(1, 2), 5)])]

    def test_float_points_and_obstacles_compile_no_minor(self, minor_points):
        searches, read = minor_points
        D = MINOR_CASES["vanishing-pair"]
        floats = [(0.5, 0.25), (0.0, 0.0), (Fraction(1, 2), 0.25)]
        assert distributions.fibre_ranks(D, floats) == self._one_by_one(D, floats)
        assert (searches, read) == ([], [])
        # beside a rational point, a float point is still never read by M
        assert distributions.fibre_ranks(D, [(1, 1), (1.0, 1.0)]) == (2, 2)
        assert [points for _, points in read] == [[(1, 1)]]
        read.clear()
        grid = {1: frac_grid(-1, 1, 2), 2: frac_grid(-1, 1, 2)}
        for name in ("one-sided-flat", "two-sided-flat", "half-plane-translations"):
            D = MINOR_CASES[name]
            assert D.minors_obstacle(), name
            points = distributions.grid_points(grid, 2)
            ranks = classify_grid(D, grid).ranks
            assert ranks == self._one_by_one(D, points), name
            assert frobenius_verdict(D, points).ranks == ranks, name
        assert (len(searches), read) == (1, [])  # the (1, 1) call's search

    @pytest.mark.parametrize("name", ["isolated-leaf", "vanishing-pair", "nine-orbits"])
    def test_one_search_and_one_compiled_minor_per_call(self, name, minor_points):
        searches, read = minor_points
        D = MINOR_CASES[name]
        first = singular_locus_minors(D).minors[0]
        grid = {i + 1: frac_grid(-1, 1, 2) for i in range(D.dim)}
        points = distributions.grid_points(grid, D.dim)
        searches.clear()
        for run in (lambda: classify_grid(D, grid).ranks,
                    lambda: frobenius_verdict(D, points).ranks):
            read.clear()
            assert run() == self._one_by_one(D, points)
            assert [m for m, _ in read] == [first]
            assert [q for _, q in read] == [points]
        assert searches == [D, D]


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


class TestCompileOnce:
    """The loops over many points compile each expression once per call."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        # every expression handed to the exact evaluator while a test runs
        seen = []
        real = expr.compile_exact

        def spy(e):
            seen.append(e)
            return real(e)

        for module in (expr, vectorfield, distributions):
            monkeypatch.setattr(module, "compile_exact", spy)
        return seen

    @pytest.fixture
    def mixed(self, vf):
        return Distribution((vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^4+x2^4"], 2)))

    def test_grid_compiles_each_component_once(self, mixed, compiled):
        # the first nonzero minor once, and each component once where that
        # minor vanishes: only at the origin, on these grids
        (minor,) = singular_locus_minors(mixed).minors
        components = [c for g in mixed.generators for c in g.components]
        for step in (1, 4):  # 9 and 81 points
            compiled.clear()
            axes = {1: frac_grid(-1, 1, step), 2: frac_grid(-1, 1, step)}
            assert len(classify_grid(mixed, axes).points) == (2 * step + 1) ** 2
            assert compiled == [minor] + components
        compiled.clear()
        axes = {1: frac_grid(1, 2, 4), 2: frac_grid(-1, 1, 4)}  # off the origin
        assert classify_grid(mixed, axes).ranks == (2,) * 45
        assert compiled == [minor]

    def test_minors_compile_and_evaluate_nothing(self, mixed, compiled, monkeypatch):
        # the generic rank is read from the symbolic minors: no point is
        # sampled, ranked or evaluated
        evaluated = []
        for name in ("fibre_rank", "field_values"):
            monkeypatch.setattr(distributions, name,
                                lambda *args, name=name: evaluated.append(name))
        locus = singular_locus_minors(mixed)
        assert locus.generic_rank == 2 and len(locus.minors) == 1
        assert (compiled, evaluated) == ([], [])


def test_rank_at_rejects_a_point_of_another_dimension():
    D = Distribution(parse_system(PRESETS["linear-shear"].system_text).fields)
    with pytest.raises(ValueError, match="has 1 coordinates, the fields have 2"):
        rank_at(D, (Fraction(1, 2),))
