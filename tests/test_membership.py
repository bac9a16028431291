import itertools
from fractions import Fraction

import numpy as np
import pytest

from vfkit.expr import ZERO, const, parse, var
from vfkit.fields import lie_bracket, multiply_field
from vfkit.linalg import in_span
from vfkit import membership
from vfkit.membership import (
    UNKNOWNS_CAP,
    MembershipError,
    ideal_member_bounded,
    member_bounded,
    members_bounded,
)
from vfkit.presets import PRESETS
from vfkit.systems import parse_system



@pytest.fixture
def radial_pair(vf):
    return [
        vf("X1", ["x1^2+x2^2", "0"], 2),
        vf("X2", ["0", "x1^2+x2^2"], 2),
    ]


@pytest.fixture
def mixed_pair(vf):
    return [
        vf("X1", ["x1^2+x2^2", "0"], 2),
        vf("X2", ["0", "x1^4+x2^4"], 2),
    ]


def test_linear_not_in_quadratic_module(vf):
    cert = member_bounded(vf("t", ["x1"], 1), [vf("g", ["x1^2"], 1)], 10)
    assert not cert.member
    assert cert.verdict == "not-member-up-to-degree(10)"


def test_quadratic_in_linear_module(vf):
    cert = member_bounded(vf("t", ["x1^2"], 1), [vf("g", ["x1"], 1)], 10)
    assert cert.member
    assert str(cert.multipliers[0]) == "x1"


def test_radial_bracket_is_member(radial_pair):
    b = lie_bracket(*radial_pair)
    # independent check first: the bracket expands to 2x1*X2 - 2x2*X1
    expected = tuple(
        const(2) * var(1) * radial_pair[1].components[i]
        - const(2) * var(2) * radial_pair[0].components[i]
        for i in range(2)
    )
    assert all((a - b_).is_zero() for a, b_ in zip(b.components, expected))
    cert = member_bounded(b, radial_pair, 1)
    assert cert.member
    assert [str(m) for m in cert.multipliers] == ["-2*x2", "2*x1"]
    # certificate re-verifies by expansion
    for i in range(2):
        acc = ZERO
        for m, g in zip(cert.multipliers, radial_pair):
            acc = acc + m * g.components[i]
        assert acc == b.components[i]


def test_mixed_bracket_is_not_member(mixed_pair):
    b = lie_bracket(*mixed_pair)
    cert = member_bounded(b, mixed_pair, 8)
    assert not cert.member


def test_umbrella_ideal():
    f = parse("x3*(x1^2+x2^2) - x2^3", 3)
    assert not ideal_member_bounded(parse("x1", 3), [f], 8).member
    self_cert = ideal_member_bounded(f, [f], 8)
    assert self_cert.member and str(self_cert.multipliers[0]) == "1"
    shifted = ideal_member_bounded(parse("x1", 3) * f, [f], 8)
    assert shifted.member and str(shifted.multipliers[0]) == "x1"


def test_monotone_in_degree(vf):
    target = vf("t", ["x1^3"], 1)
    gen = vf("g", ["x1"], 1)
    degrees = [d for d in range(0, 7) if member_bounded(target, [gen], d).member]
    assert degrees == [2, 3, 4, 5, 6]  # once member, always member


def test_zero_target_trivially_member(vf):
    cert = member_bounded(vf("z", ["0", "0"], 2), [vf("g", ["x1", "x2"], 2)], 0)
    assert cert.member
    assert all(m.is_zero() for m in cert.multipliers)


def test_member_implies_pointwise_span(vf):
    # necessary condition: membership puts target values in the fibre span
    rng = np.random.default_rng(31)
    gens = [vf("g1", ["x1", "x2"], 2), vf("g2", ["x2^2", "1"], 2)]
    target = multiply_field(parse("x1-3", 2), gens[0])
    cert = member_bounded(target, gens, 2)
    assert cert.member
    for _ in range(50):
        p = (
            Fraction(int(rng.integers(-12, 13)), 4),
            Fraction(int(rng.integers(-12, 13)), 4),
        )
        fibre = [g.value(p) for g in gens]
        assert in_span(fibre, target.value(p))


def test_module_containment(vf):
    small = [vf("a", ["x1^2", "0"], 2)]
    big = [vf("b1", ["x1", "0"], 2), vf("b2", ["0", "1"], 2)]
    assert all(c.member for c in members_bounded(small, big, 2))
    assert not all(c.member for c in members_bounded(big, small, 4))


def test_rejects_flat_components(vf):
    flat = vf("f", ["bumpp(x1)"], 1)
    with pytest.raises(MembershipError):
        member_bounded(flat, [vf("g", ["x1"], 1)], 2)


def test_rejects_excessive_degree(vf):
    with pytest.raises(MembershipError):
        member_bounded(vf("t", ["x1"], 1), [vf("g", ["x1"], 1)], 13)


def test_rejects_oversized_system_before_building_rows(vf, monkeypatch):
    def enumerated(n, d):
        raise AssertionError("monomials enumerated for an over-cap system")

    monkeypatch.setattr(membership, "_monomials_up_to", enumerated)
    x = ["x%d" % i for i in range(1, 11)]
    # one generator in 10 variables at degree 12: C(22, 12) = 646646 unknowns
    with pytest.raises(MembershipError, match="646646 unknowns"):
        member_bounded(vf("t", [x[0]], 10), [vf("g", [x[9]], 10)], 12)
    assert UNKNOWNS_CAP < 646646


# Multiplier strings pinned exactly: the reduced row echelon form, with free
# unknowns set to 0, fixes every coefficient.


def test_mixed_pair_certificate_strings(mixed_pair, vf):
    r2, q4 = "(x1^2+x2^2)", "(x1^4+x2^4)"
    target = vf("t", [f"(1+x1-2*x2^2)*{r2}", f"(3*x1*x2-1)*{q4}"], 2)
    cert = member_bounded(target, mixed_pair, 3)
    assert [str(m) for m in cert.multipliers] == ["1 + x1 - 2*x2^2", "-1 + 3*x1*x2"]
    # a redundant third generator: its multiplier is the free unknown set to 0
    redundant = mixed_pair + [vf("X3", [f"x1*{r2}", "0"], 2)]
    cert = member_bounded(vf("t", [f"x1^2*{r2}", f"x2*{q4}"], 2), redundant, 2)
    assert [str(m) for m in cert.multipliers] == ["x1^2", "x2", "0"]


def test_umbrella_certificate_string():
    f = parse("x3*(x1^2+x2^2) - x2^3", 3)
    m = parse("2 - x1*x3 + 3*x2^2", 3)
    cert = ideal_member_bounded(m * f, [f], 8)
    assert [str(c) for c in cert.multipliers] == ["2 - x1*x3 + 3*x2^2"]


# Many targets against one generator set are one elimination; each
# certificate must be the one its target gets alone, string for string.


def _strings(certs):
    return [
        (c.verdict, None if c.multipliers is None else [str(m) for m in c.multipliers])
        for c in certs
    ]


def _assert_batch_matches_singles(targets, gens, degree):
    batched = members_bounded(targets, gens, degree)
    singles = [member_bounded(t, gens, degree) for t in targets]
    assert batched == singles
    assert _strings(batched) == _strings(singles)
    return batched


POLYNOMIAL_PRESETS = [
    name for name, preset in PRESETS.items()
    if all(g.is_polynomial() for g in parse_system(preset.system_text).fields)
]


@pytest.mark.parametrize("name", POLYNOMIAL_PRESETS)
def test_batched_preset_brackets_match_singles(name):
    family = list(parse_system(PRESETS[name].system_text).fields)
    depth2 = [lie_bracket(a, b) for a, b in itertools.combinations(family, 2)]
    depth3 = [lie_bracket(g, b) for g in family for b in depth2]
    for degree in (0, 2):
        _assert_batch_matches_singles(depth2 + depth3, family, degree)


def test_batched_random_targets_match_singles(mixed_pair):
    rng = np.random.default_rng(2024)

    def random_poly(max_degree):
        terms = [
            f"({int(rng.integers(-3, 4))})*x1^{a}*x2^{b}"
            for a in range(max_degree + 1)
            for b in range(max_degree + 1 - a)
            if rng.random() < 0.5
        ]
        return parse("+".join(terms) or "0", 2)

    targets = [(ZERO, ZERO)]
    for _ in range(6):  # members: combinations with multipliers of degree <= 2
        m1, m2 = random_poly(2), random_poly(2)
        targets.append(tuple(
            m1 * g1 + m2 * g2
            for g1, g2 in zip(mixed_pair[0].components, mixed_pair[1].components)
        ))
    for _ in range(6):  # arbitrary polynomials, mostly non-members
        targets.append((random_poly(3), random_poly(3)))
    for degree in (1, 2, 3):
        certs = _assert_batch_matches_singles(targets, mixed_pair, degree)
        assert certs[0].member
    verdicts = [c.member for c in members_bounded(targets, mixed_pair, 2)]
    assert all(verdicts[1:7]) and not all(verdicts[7:])


def test_batched_redundant_generator_strings(mixed_pair, vf):
    r2, q4 = "(x1^2+x2^2)", "(x1^4+x2^4)"
    redundant = mixed_pair + [vf("X3", [f"x1*{r2}", "0"], 2)]
    targets = [
        vf("t", [f"x1^2*{r2}", f"x2*{q4}"], 2),
        lie_bracket(*mixed_pair),
        vf("z", ["0", "0"], 2),
    ]
    certs = _assert_batch_matches_singles(targets, redundant, 2)
    assert _strings(certs) == [
        ("member", ["x1^2", "x2", "0"]),
        ("not-member-up-to-degree(2)", None),
        ("member", ["0", "0", "0"]),
    ]


def test_batched_checks_keep_their_order(vf):
    g = vf("g", ["x1"], 1)
    with pytest.raises(MembershipError, match="component count mismatch"):
        members_bounded([vf("t", ["x1"], 1), vf("u", ["x1", "0"], 2)], [g], 2)
    with pytest.raises(MembershipError, match="target must be polynomial"):
        members_bounded([vf("t", ["x1"], 1), vf("f", ["bumpp(x1)"], 1)], [g], 2)
    x = ["x%d" % i for i in range(1, 11)]
    with pytest.raises(MembershipError, match="646646 unknowns"):
        members_bounded([vf("t", ["0"], 10), vf("u", [x[0]], 10)], [vf("g", [x[9]], 10)], 12)
