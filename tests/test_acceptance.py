"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2's axis clause checks the fixed-time orbit through (1, 0): it
is the open half-axis that the closed form of the commuting diagonal flows
gives, so the published singleton is refuted, and the test asserts the size
of that refutation.  Every criterion is green at the stated tolerances.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from vfkit.distributions import Distribution, rank_at
from vfkit.expr import parse
from vfkit.fields import apply_word, lie_bracket, value_float
from vfkit.vectorfield import VectorField
from vfkit.frobenius import flow_box_chart, frobenius_verdict
from vfkit.membership import ideal_member_bounded, member_bounded
from vfkit.orbits import (
    WordSampler,
    chow_verdict,
    fixed_time_dimension,
    orbit_dimension,
    zero_sum_words,
)
from vfkit.presets import steer_linear

from conftest import lie_fixed_time_ideal, lie_rank, make_field, multiply_field


def vf(name, comps, n, constraints=()):
    return make_field(name, comps, n, constraints)


def criterion(k, label):
    def announce(ok):
        print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {label}")

    return announce


DIAG = [vf("X1", ["x1", "0"], 2), vf("X2", ["0", "x2"], 2)]
SHEAR = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1"], 2)]
FLAT = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "bumpp(x1)"], 2)]
NINE = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)]


def test_criterion_1_nine_orbits():
    announce = criterion(1, "nine-orbit dimensions and sign patterns")
    ok = False
    try:
        dims = tuple(
            orbit_dimension(DIAG, p, WordSampler(seed=i, count=200)).dimension
            for i, p in enumerate(NINE)
        )
        assert dims == (0, 1, 1, 1, 1, 2, 2, 2, 2)

        def pattern(q):
            return tuple(0 if abs(x) < 1e-12 else (1 if x > 0 else -1) for x in q)

        for i, p in enumerate(NINE):
            ref = pattern(p)
            for w in WordSampler(seed=1000 + i, count=200).words(2):
                assert pattern(apply_word(DIAG, w, p)) == ref
        ok = True
    finally:
        announce(ok)


def test_criterion_2_fixed_time_hyperbolas():
    announce = criterion(2, "fixed-time dimension, invariant, and gap at (1,1)")
    ok = False
    try:
        rep = fixed_time_dimension(DIAG, (1, 1), 0.0, WordSampler(seed=7, count=200))
        assert rep.dimension == 1
        assert rep.orbit_dimension_at_reached - rep.dimension == 1
        product = parse("x1*x2", 2)
        ref = product.eval_float(rep.reached)
        for w in zero_sum_words(WordSampler(seed=7, count=200).words(2)):
            assert abs(product.eval_float(apply_word(DIAG, w, rep.reached)) - ref) < 1e-8
        ok = True
    finally:
        announce(ok)


def test_criterion_2_axis_singleton_clause():
    announce = criterion(2, "fixed-time orbit through (1,0) is the half-axis; singleton refuted")
    ok = False
    try:
        rep = fixed_time_dimension(DIAG, (1, 0), 0.5, WordSampler(seed=7, count=200))
        # X2 vanishes on the axis and commutes with X1, so a zero-sum word
        # lands at (x1 e^(s1), 0), where s1 is the word's total time on X1.
        # The fixed-time orbit is the open half-axis, not the stated
        # singleton: the ideal rank there is 1 (X1 - X2 = (x1, 0)) and the
        # sampled orbit fills the one-dimensional orbit.
        x1, x2 = rep.reached
        assert x1 == pytest.approx(math.exp(0.5), rel=1e-12)
        assert x2 == 0.0
        assert rep.ideal_rank == rep.dimension == rep.orbit_dimension_at_reached == 1
        # the exact rank walks no zero-sum word
        assert (rep.certificate, rep.words_used, rep.words_skipped) == (
            "zero-time-ideal", 0, 0)

        words = zero_sum_words(WordSampler(seed=7, count=200).words(2))
        closed_form_disp = walked_disp = 0.0
        for w in words:
            s1 = sum(t for i, t in w if i == 0)
            want = x1 * math.exp(s1)
            landed = apply_word(DIAG, w, rep.reached)
            assert landed[1] == 0.0, w
            assert landed[0] == pytest.approx(want, rel=1e-12), w
            closed_form_disp = max(closed_form_disp, abs(want - x1))
            walked_disp = max(walked_disp, float(np.max(np.abs(landed - rep.reached))))
        assert walked_disp == pytest.approx(closed_form_disp, rel=1e-12)
        # The refutation is macroscopic, not a tolerance artifact.
        assert walked_disp > 1.0
        ok = True
    finally:
        announce(ok)


def test_criterion_3_linear_steering():
    announce = criterion(3, "closed-form steering and depth-2 controllability")
    ok = False
    try:
        u1, u2, err = steer_linear((0, 0), (1, 1), 1.0)
        assert u1 == pytest.approx(3.0, abs=1e-12)
        assert u2 == pytest.approx(-1.0, abs=1e-12)
        assert err < 1e-8
        integrator = [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)]
        assert chow_verdict(integrator, [(0, 0), (1, -1)], 2).bracket_generating
        ok = True
    finally:
        announce(ok)


def test_criterion_4_bracket_regressions():
    announce = criterion(4, "exact symbolic bracket values")
    ok = False
    try:
        b = lie_bracket(*SHEAR)
        assert [str(c) for c in b.components] == ["0", "1"]
        quad = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "x1^2"], 2)]
        b1 = lie_bracket(*quad)
        b2 = lie_bracket(quad[0], b1)
        assert [str(c) for c in b1.components] == ["0", "2*x1"]
        assert [str(c) for c in b2.components] == ["0", "2"]
        iso = [vf("X1", ["x1*x3", "1", "0"], 3), vf("X2", ["0", "0", "1"], 3)]
        assert [str(c) for c in lie_bracket(*iso).components] == ["-x1", "0", "0"]
        ok = True
    finally:
        announce(ok)


def test_criterion_5_flat_counterexample():
    announce = criterion(5, "flat pair: orbits full, brackets deficient, not integrable")
    ok = False
    try:
        assert lie_rank(FLAT, (-1, 0), 8) == 1
        assert lie_rank(FLAT, (0, 0), 8) == 1
        assert lie_rank(FLAT, (1, 0), 8) == 2

        boost = WordSampler(seed=13, count=400, max_len=8, max_time=1.5)
        for p in [(-1, 0), (0, 0), (1, 0)]:
            assert orbit_dimension(FLAT, p, boost).dimension == 2

        grid = [(Fraction(i), Fraction(j)) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        v = frobenius_verdict(Distribution(tuple(FLAT)), grid, orbit_sampler=boost)
        assert v.integrable == "no"
        assert v.involutive_pointwise
        assert (Fraction(0), Fraction(0)) in v.witnesses
        ok = True
    finally:
        announce(ok)


def test_criterion_6_generator_dependence():
    announce = criterion(6, "bracket rank at the origin depends on the generators")
    ok = False
    try:
        assert lie_rank(SHEAR, (0, 0), 8) == 2
        assert lie_rank(FLAT, (0, 0), 8) == 1
        ok = True
    finally:
        announce(ok)


def test_criterion_7_membership_suite():
    announce = criterion(7, "exact degree-bounded membership suite")
    ok = False
    try:
        assert not member_bounded(
            vf("t", ["x1"], 1), [vf("g", ["x1^2"], 1)], 10
        ).member
        umbrella = parse("x3*(x1^2+x2^2) - x2^3", 3)
        assert not ideal_member_bounded(parse("x1", 3), [umbrella], 8).member
        radial = [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^2+x2^2"], 2)]
        cert = member_bounded(lie_bracket(*radial), radial, 1)
        assert cert.member
        mixed = [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^4+x2^4"], 2)]
        assert not member_bounded(lie_bracket(*mixed), mixed, 8).member
        ok = True
    finally:
        announce(ok)


def test_criterion_8_frobenius_table():
    announce = criterion(8, "integrability verdict table")
    ok = False
    try:
        grid3 = [(Fraction(i), Fraction(j), Fraction(k))
                 for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]
        shear3 = Distribution(
            (vf("X1", ["0", "1", "0"], 3), vf("X2", ["1", "0", "x2"], 3))
        )
        assert frobenius_verdict(shear3, grid3).integrable == "no"

        plane = Distribution(
            (vf("X1", ["1", "0", "0"], 3), vf("X2", ["0", "1", "0"], 3))
        )
        assert frobenius_verdict(plane, grid3).integrable == "yes"
        chart = flow_box_chart(plane, (0, 0, 0))
        assert chart.accepted and chart.max_residual < 1e-9

        isolated = Distribution(
            (vf("X1", ["x1*x3", "1", "0"], 3), vf("X2", ["0", "0", "1"], 3))
        )
        v = frobenius_verdict(isolated, grid3)
        assert v.integrable == "no"
        assert all(p[0] != 0 for p in v.witnesses)

        radial = Distribution(
            (vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^2+x2^2"], 2))
        )
        grid2 = [(Fraction(i), Fraction(j)) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        assert frobenius_verdict(radial, grid2, module_degree=1).integrable == "yes"
        ok = True
    finally:
        announce(ok)


def test_criterion_9_property_suites(tmp_path):
    announce = criterion(9, "seeded property suites")
    ok = False
    try:
        rng = np.random.default_rng(4242)

        def random_field(n=2):
            comps = []
            for _ in range(n):
                e = parse("0", n)
                for _ in range(int(rng.integers(1, 4))):
                    c = int(rng.integers(-2, 3))
                    if c == 0:
                        continue
                    term = parse(str(c), n)
                    for _ in range(int(rng.integers(0, 4))):
                        term = term * parse(f"x{int(rng.integers(1, n + 1))}", n)
                    e = e + term
                comps.append(e)
            return VectorField(f"R{int(rng.integers(1e6))}", tuple(comps))

        # bracket algebra, symbolically, 20+ seeded instances
        for _ in range(22):
            X, Y, Z = random_field(), random_field(), random_field()
            anti = [
                a + b
                for a, b in zip(
                    lie_bracket(X, Y).components, lie_bracket(Y, X).components
                )
            ]
            assert all(c.is_zero() for c in anti)
            jac = [
                a + b + c
                for a, b, c in zip(
                    lie_bracket(X, lie_bracket(Y, Z)).components,
                    lie_bracket(Z, lie_bracket(X, Y)).components,
                    lie_bracket(Y, lie_bracket(Z, X)).components,
                )
            ]
            assert all(c.is_zero() for c in jac)
            f = parse("x1*x2 - 2", 2)
            lhs = lie_bracket(multiply_field(f, X), Y)
            lyf = Y.components[0] * f.diff(1) + Y.components[1] * f.diff(2)
            rhs = [
                f * bc - lyf * xc
                for bc, xc in zip(lie_bracket(X, Y).components, X.components)
            ]
            assert all((a - b).is_zero() for a, b in zip(lhs.components, rhs))

        # finite-difference bracket oracle at 1e-6
        from vfkit.fields import pushforward_along_word

        for _ in range(20):
            X, Y = random_field(), random_field()
            b = lie_bracket(Y, X)
            for _ in range(5):
                p = tuple(rng.uniform(-1, 1, size=2))
                h = 1e-2

                def central(hh):
                    plus = pushforward_along_word([X], [(0, hh)], Y, p)
                    minus = pushforward_along_word([X], [(0, -hh)], Y, p)
                    return (plus - minus) / (2 * hh)

                fd = (4 * central(h / 2) - central(h)) / 3
                want = value_float(b, p)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(fd - want)) < 1e-6 * scale

        # rank robustness under module augmentation
        for fam in (DIAG, SHEAR):
            for ftext in ("x1", "x2 - 1", "x1*x2 + 2"):
                aug = list(fam) + [multiply_field(parse(ftext, 2), fam[0])]
                for p in [(0, 0), (1, 0), (1, 1), (Fraction(1, 2), Fraction(-1, 3))]:
                    assert lie_rank(fam, p, 5) == lie_rank(aug, p, 5)
                    D0 = Distribution(tuple(fam))
                    D1 = Distribution(tuple(aug))
                    assert rank_at(D0, p).rank == rank_at(D1, p).rank

        # codim in {0,1} everywhere sampled, all presets
        integrator = [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)]
        for fam in (DIAG, SHEAR, FLAT, integrator):
            for p in [(0, 0), (1, 0), (1, 1), (Fraction(-1, 2), Fraction(3, 4))]:
                code, report = lie_fixed_time_ideal(fam, p, tmp_path)
                assert code == 0 and report["results"]["fixed_time_ideal"]["codim"] in (0, 1)

        # sampled orbit dim >= bracket rank; fixed-time dim >= ideal rank
        for i, (fam, p) in enumerate(
            [(DIAG, (1, 1)), (SHEAR, (0, 0)), (FLAT, (0, 0)), (FLAT, (1, 0))]
        ):
            rep = orbit_dimension(
                fam, p, WordSampler(seed=50 + i, count=200, max_len=8, max_time=1.5)
            )
            assert rep.dimension >= rep.linf_rank
        for i, (fam, p, T) in enumerate(
            [(DIAG, (1, 1), 0.0), (DIAG, (1, 0), 0.5), (integrator, (0, 0), 1.0)]
        ):
            rep = fixed_time_dimension(fam, p, T, WordSampler(seed=80 + i, count=150))
            assert rep.dimension >= rep.ideal_rank
        ok = True
    finally:
        announce(ok)
