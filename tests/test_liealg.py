import itertools
import json
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from vfkit.expr import Expr, const, parse, var
from vfkit.vectorfield import DomainPredicate, VectorField, field_values, lie_bracket
from vfkit import cli, liealg, linalg, membership
from vfkit.liealg import (
    BracketWord,
    LieAlgebraError,
    certify,
    filtration,
    ideal_vectors,
    pairwise_brackets,
    pointwise_witnesses,
    time_extended,
    word_vectors,
)
from vfkit.linalg import span_rank
from vfkit.presets import PRESETS
from vfkit.systems import parse_system

from conftest import (fixed_time_ranks, lie_fixed_time_ideal, lie_rank, lie_ranks_by_depth,
                      multiply_field)



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
        assert lie_ranks_by_depth(diag, (0, 0)) == [0] * 6
        assert lie_ranks_by_depth(diag, (1, 0)) == [1] * 6
        assert lie_ranks_by_depth(diag, (1, 1)) == [2] * 6

    def test_shear_gains_rank_at_depth_two(self, shear):
        f = filtration(shear, 6)
        assert f.stabilized_at == 2
        assert lie_ranks_by_depth(shear, (0, 0)) == [1, 2, 2, 2, 2, 2]

    def test_flat_family_is_capped(self, flat):
        f = filtration(flat, 8)
        assert f.stabilized_at is None and f.certificate is None
        assert lie_rank(flat, (-1, 0), 8) == 1
        assert lie_rank(flat, (0, 0), 8) == 1
        assert lie_rank(flat, (1, 0), 8) == 2

    def test_module_certificate(self):
        # [X1, X2] = -2 x2 X1 + 2 x1 X2: no symbolic closure, so only the
        # module search certifies, with multipliers of degree 1
        f = filtration(preset_family("vanishing-pair"), 5)
        assert (f.stabilized_at, f.certificate) == (None, None)
        f = certify(f, 3)
        assert (f.stabilized_at, f.certificate) == (1, "module-degree-3")

    def test_rank_sequence_nondecreasing(self, vf):
        rng = np.random.default_rng(12)
        fams = [
            [vf("A", ["1", "0", "0"], 3), vf("B", ["0", "1", "x1*x2"], 3)],
            [vf("A", ["x2", "0"], 2), vf("B", ["0", "x1"], 2)],
            [vf("A", ["1", "x3", "0"], 3), vf("B", ["0", "x1", "1"], 3)],
        ]
        for fam in fams:
            pts = [tuple(rng.uniform(-1, 1, size=fam[0].dim)) for _ in range(5)]
            for seq in (lie_ranks_by_depth(fam, p, 5) for p in pts):
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
        f = certify(filtration(fam, 6), 6)
        # no certificate: depths 1..5 are tried, each against its next level
        # as one system (one system per word of those levels before: 22)
        assert f.stabilized_at is None
        assert solved == [len(level) for level in f.levels[1:]]
        assert len(solved) == 5

    def test_module_search_eliminates_only_what_the_targets_reach(self, tmp_path, monkeypatch):
        # lie on mixed-degree-pair at depth 5 and module degree 5 solves
        # systems of up to 267 nominal rows; at most 46 of them connect to a
        # target coefficient, and only those are built and eliminated
        systems = []  # per membership system: [its rows, the rows eliminated]
        solving = []  # the system being solved; ranks eliminate outside any
        solve, rref = membership.exact_solve, linalg._rref

        def solving_spy(A, rhs):
            solving.append([len(A), 0])
            try:
                return solve(A, rhs)
            finally:
                systems.append(solving.pop())

        def rref_spy(rows):
            if solving:
                solving[-1][1] += len(rows)
            return rref(rows)

        monkeypatch.setattr(membership, "exact_solve", solving_spy)
        monkeypatch.setattr(linalg, "_rref", rref_spy)
        path = tmp_path / "mixed-degree-pair.vf"
        path.write_text(PRESETS["mixed-degree-pair"].system_text)
        assert cli.main(["lie", "--system", str(path), "--point", "1/2,3/4", "--depth", "5",
                         "--module-degree", "5", "--format", "json"]) == 0
        assert all(built == eliminated for built, eliminated in systems)
        assert 0 < max(built for built, _ in systems) <= 46

    def test_generators_are_differentiated_once_per_filtration(self, monkeypatch):
        # a depth-8 one-sided-flat filtration keeps one partials dict per
        # generator, so each generator partial is taken once, when a bracket
        # first reads it; its non-polynomial brackets otherwise differentiate
        # only the deeper word: 46 calls in all (71 when each bracket
        # differentiated its generator again, 54 when every depth-2 pair was
        # built)
        family = preset_family("one-sided-flat")
        diffs, memos = [], {}
        diff, bracket = Expr.diff, liealg.bracket_components
        monkeypatch.setattr(Expr, "diff", lambda e, i: diffs.append(e) or diff(e, i))

        def spy(xs, ys, dxs):
            memos.setdefault(tuple(xs), set()).add(id(dxs))
            return bracket(xs, ys, dxs)

        monkeypatch.setattr(liealg, "bracket_components", spy)
        filtration(family, 8)
        assert sorted(map(len, memos.values())) == [1, 1]
        assert set(memos) == {g.components for g in family}
        assert len(diffs) == 46

    def test_by_depth_is_the_filtration_cut_at_each_depth(self, diag, shear):
        # one builder: the ladder's depth-d filtration holds the first d
        # levels of the full one, and its ranks are those of the full one's
        # words of depth <= d, each evaluated on its own; the words it yields
        # are those until the rank is full (2), and no more after
        for fam, p, frozen in [(diag, (1, 0), 5), (shear, (0, 0), 2),
                               (preset_family("vanishing-pair"), (0, 1), 1)]:
            full = filtration(fam, 5)
            walk = list(word_vectors(fam, field_values(fam, [p]), [p], 5))
            cut = [f for f, _, _ in walk]
            assert [f.depth_cap for f in cut] == [1, 2, 3, 4, 5]
            assert [f.levels for f in cut] == [full.levels[:d] for d in range(1, 6)]
            reference = [[v for v in field_values(
                [f for level in full.levels[:d] for _, f in level], [p])[0]
                if v is not None] for d in range(1, 6)]
            assert [rank for _, _, (rank,) in walk] == [span_rank(words)
                                                        for words in reference]
            assert [words for _, (words,), _ in walk] == (
                reference[:frozen] + [reference[frozen - 1]] * (5 - frozen))
            assert (cut[-1].stabilized_at, cut[-1].certificate) == (
                full.stabilized_at, full.certificate)

    def test_duplicate_generators_ignored(self, vf):
        fam = [
            vf("X1", ["x1", "0"], 2),
            vf("X1b", ["3*x1", "0"], 2),
            vf("X2", ["0", "x2"], 2),
        ]
        f = filtration(fam, 4)
        assert len(f.levels[0]) == 2  # the rescaled copy is pruned
        assert lie_ranks_by_depth(fam, (1, 1), 4) == [2, 2, 2, 2]


def module_witness(family, degree):
    """The first pairwise bracket that is no member of the generators'
    module with multipliers of degree <= degree, or None."""
    brackets = pairwise_brackets(family)
    certs = membership.members_bounded(brackets.values(), family, degree)
    return next((ij for ij, c in zip(brackets, certs) if not c.member), None)


class TestInvolutivity:
    def test_pairwise_brackets_keep_the_nonzero_pairs_in_order(self, vf):
        fam = [vf("X1", ["1", "0"], 2), vf("X2", ["0", "1"], 2), vf("X3", ["0", "x1"], 2),
               vf("X4", ["x2", "0"], 2)]
        brackets = pairwise_brackets(fam)
        # [X1, X2], [X1, X4] and [X2, X3] vanish
        assert list(brackets) == [(0, 2), (1, 3), (2, 3)]
        for (i, j), b in brackets.items():
            assert b == lie_bracket(fam[i], fam[j])

    def test_shear3_not_involutive(self, vf):
        fam = [vf("X1", ["0", "1", "0"], 3), vf("X2", ["1", "0", "x2"], 3)]
        brackets = pairwise_brackets(fam)
        for p in [(0, 0, 0), (1, 1, 1)]:
            assert next(pointwise_witnesses(field_values(fam, [p]), brackets, [p])) == (0, 1, p)

    def test_fibre_evaluated_once_and_only_under_a_bracket(self, vf, monkeypatch):
        from vfkit import vectorfield

        # two brackets, each defined only on x1 > 0; at (1, 0, 0) X2 and X3
        # vanish and [X1, X2] leaves the fibre
        fam = [vf("X1", ["1", "0", "0"], 3, [(1, ">", 0)]), vf("X2", ["0", "x1-1", "0"], 3),
               vf("X3", ["0", "0", "x1-1"], 3)]
        brackets = pairwise_brackets(fam)
        assert len(brackets) == 2
        given = field_values(fam, [(-1, 0, 0), (1, 0, 0)])
        values = []
        real = vectorfield._compile_value

        def spy(X):
            value = real(X)
            return lambda p: values.append(X.name) or value(p)

        monkeypatch.setattr(vectorfield, "_compile_value", spy)
        # the caller evaluates the fibre once; a bracket is evaluated only
        # where it is defined, and the first one to leave the fibre stops
        assert next(pointwise_witnesses(given[:1], brackets, [(-1, 0, 0)])) is None
        assert values == []
        assert next(pointwise_witnesses(given[1:], brackets, [(1, 0, 0)])) == (0, 1, (1, 0, 0))
        assert values == [brackets[(0, 1)].name]

    def test_radial_pair_module_involutive(self, vf):
        fam = [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^2+x2^2"], 2)]
        assert module_witness(fam, 1) is None

    def test_mixed_pair_not_module_involutive(self, vf):
        fam = [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^4+x2^4"], 2)]
        assert module_witness(fam, 8) == (0, 1)

    def test_module_witness_is_first_non_member_pair(self, vf):
        radial = ["x1^2+x2^2", "0"], ["0", "x1^2+x2^2"]
        fam = [vf(f"X{k}", c, 2) for k, c in enumerate(radial + (["0", "x1^4+x2^4"],))]
        singles = {
            (i, j): membership.member_bounded(lie_bracket(fam[i], fam[j]), fam, 2).member
            for i, j in [(0, 1), (0, 2), (1, 2)]
        }
        first = next(ij for ij, member in singles.items() if not member)
        assert singles[(0, 1)] and first != (0, 1)
        assert module_witness(fam, 2) == first

    def test_flat_pair_pointwise_involutive(self, flat):
        brackets = pairwise_brackets(flat)
        samples = [(-1, 0), (0, 0), (1, 0), (0.5, 0.5), (-2, 1)]
        assert all(next(pointwise_witnesses([vals], brackets, [p])) is None
                   for p, vals in zip(samples, field_values(flat, samples)))


def derived(family, depth_cap):
    """The kept bracket words of depth >= 2."""
    return [f for level in filtration(family, depth_cap).levels[1:] for _, f in level]


class TestDerived:
    def test_commuting_family_empty(self, diag):
        assert derived(diag, 4) == []

    def test_shear_single_direction(self, shear):
        fields = derived(shear, 4)
        assert len(fields) == 1
        assert [str(c) for c in fields[0].components] == ["0", "-1"]

    def test_heisenberg_direction(self, vf):
        fam = [vf("X1", ["0", "1", "0"], 3), vf("X2", ["1", "0", "x2"], 3)]
        fields = derived(fam, 4)
        assert len(fields) == 1
        ((values,),) = field_values(fields, [(0, 0, 0)])
        assert [abs(v) for v in values] == [0, 0, 1]


class TestFixedTimeIdeal:
    """``vfkit lie --fixed-time-ideal`` ranks the zero-time ideal as the
    time-extended family's rank at (p, 0) minus 1, and checks that its
    codimension is 0 or 1."""

    @staticmethod
    def ranks(family, point, tmp_path):
        code, report = lie_fixed_time_ideal(family, point, tmp_path)
        assert code == 0, report["error"]
        rep = report["results"]["fixed_time_ideal"]
        return rep["ideal_rank"], rep["lie_rank"], rep["codim"]

    def test_diag_codim_one(self, diag, tmp_path):
        assert self.ranks(diag, (1, 1), tmp_path) == (1, 2, 1)

    def test_shear_codim_zero(self, shear, tmp_path):
        assert self.ranks(shear, (0, 0), tmp_path) == (2, 2, 0)

    def test_single_field(self, vf, tmp_path):
        assert self.ranks([vf("X", ["1", "0"], 2)], (3, -2), tmp_path) == (0, 1, 1)

    def test_codim_invariant_across_presets(self, diag, shear, flat, vf, tmp_path,
                                            monkeypatch):
        fams = [
            diag,
            shear,
            flat,
            [vf("X1", ["x1^2+x2^2", "0"], 2), vf("X2", ["0", "x1^2+x2^2"], 2)],
            [vf("X0", ["x2", "0"], 2), vf("X1", ["x2", "1"], 2)],
        ]
        pts = [(0, 0), (1, 0), (1, 1), (Fraction(-1, 2), Fraction(3, 2))]
        for fam in fams:
            for p in pts:
                # the command fails (exit 3) if codim is not in {0,1}
                assert self.ranks(fam, p, tmp_path)[2] in (0, 1)
        # an ideal ranked on a family whose only word is d/dt has rank 0,
        # so codim 2 at shear's origin
        monkeypatch.setattr(liealg, "time_extended",
                            lambda family: time_extended([vf("Z", ["0", "0"], 2)]))
        code, report = lie_fixed_time_ideal(shear, (0, 0), tmp_path)
        assert (code, report["status"]) == (cli.EXIT_NUMERIC, "numeric-failure")
        assert report["error"] == (
            "codimension of the fixed-time ideal must be 0 or 1, got 2")


def preset_family(name):
    return list(parse_system(PRESETS[name].system_text).fields)


class TestGeneratorDuplicates:
    """A bracket of depth >= 2 that is a rational multiple of a generator
    is pruned from the family's levels, but the time-extended family keeps
    it (no bracket (B, 0) is a multiple of a generator (X_i, 1)), so it
    counts in the zero-time ideal."""

    def test_bracket_equal_to_a_generator(self, vf):
        # [X2, X1] = -X1 for X1 = d/dx1, X2 = x1 d/dx1
        f = filtration([vf("X1", ["1"], 1), vf("X2", ["x1"], 1)])
        assert [[str(w) for w, _ in level] for level in f.levels] == [
            ["X1", "X2"], [], [], [], [], []]
        assert (f.stabilized_at, f.certificate) == (1, "symbolic-closure")
        # the time extension keeps the bracket as its only word of depth >= 2
        g = filtration(time_extended(f.family))
        assert [[str(w) for w, _ in level] for level in g.levels] == [
            ["X1", "X2"], ["[X2,X1]"], [], [], [], []]
        assert (g.stabilized_at, g.certificate) == (2, "symbolic-closure")
        assert [str(c) for c in g.levels[1][0][1].components] == ["-1", "0"]
        start = [(1, 0)]
        *_, (_, (values,), _) = word_vectors(g.family, field_values(g.family, start), start)
        assert values == [[1, 1], [1, 1], [-1, 0]]
        # X2 - X1 vanishes at 1, so the bracket alone makes the ideal rank 1
        ideal_rank, rank = fixed_time_ranks(f.family, (1,))
        assert (ideal_rank, rank, rank - ideal_rank) == (1, 1, 0)
        assert lie_ranks_by_depth(f.family, (1,)) == [1] * 6

    def test_flat_generator_module_ideal(self):
        family = preset_family("flat-generator-module")
        g = filtration(time_extended(family))
        assert [str(w) for w, _ in g.levels[1]] == ["[X2,X1]"]
        assert filtration(family).levels[1] == []
        ideal_rank, rank = fixed_time_ranks(family, (1,))
        assert (ideal_rank, rank - ideal_rank) == (1, 0)

    @pytest.mark.parametrize("name", ["linear-shear", "vanishing-pair",
                                      "mixed-degree-pair", "umbrella-ideal"])
    def test_golden_ideal_systems_have_none(self, name):
        # no bracket is a multiple of a generator: the time extension's
        # words of depth >= 2 are the family's, with a last coordinate 0
        family = preset_family(name)
        words, extended = filtration(family, 6), filtration(time_extended(family), 6)
        assert [[(str(w), f.components + (const(0),)) for w, f in level]
                for level in words.levels[1:]] == [
            [(str(w), f.components) for w, f in level] for level in extended.levels[1:]]


def all_pairs_reference(family, depth_cap):
    """(levels, stabilized_at, certificate) of the filtration by its
    definition, built here: per depth, [X_i, w] for every kept word w of the
    depth before and every generator X_i, in that order, by ``lie_bracket``,
    each kept unless it is zero or a rational multiple of a kept word on the
    same domain, the same set of constraints."""
    def key(X):
        lead = next((c.terms[0][0] for c in X.components if c.terms), None)
        return None if lead is None else (
            tuple(tuple((f, c / lead) for c, f in comp.terms) for comp in X.components),
            frozenset(X.domain.constraints))

    seen, levels, stabilized_at = set(), [], None
    for depth in range(1, depth_cap + 1):
        built = ([(BracketWord((i,)), g) for i, g in enumerate(family)] if depth == 1 else
                 [(BracketWord(w.indices + (i,)), lie_bracket(g, f))
                  for w, f in levels[-1] for i, g in enumerate(family)])
        level = []
        for w, b in built:
            if (k := key(b)) is not None and k not in seen:
                seen.add(k)
                level.append((w, b if depth == 1 else VectorField(str(w), b.components, b.domain)))
        levels.append(level)
        if depth > 1 and not level and stabilized_at is None:
            stabilized_at = depth - 1
    return levels, stabilized_at, None if stabilized_at is None else "symbolic-closure"


def random_family(rng):
    """Up to three polynomial fields on R^n, n <= 3, with rational
    coefficients, some on a half-space, and now and then a rational multiple
    of one of them, on its domain or on another."""
    n = rng.randint(1, 3)

    def poly():
        e = const(0)
        for _ in range(rng.randint(0, 3)):
            term = const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2)):
                term = term * var(rng.randint(1, n))
            e = e + term
        return e

    def domain():
        return DomainPredicate(rng.choice([(), (), ((
            rng.randint(1, n), rng.choice("<>"), Fraction(rng.randint(-2, 2), 2)),)]))

    family = [VectorField(f"X{i + 1}", tuple(poly() for _ in range(n)), domain())
              for i in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        X = rng.choice(family)
        q = const(Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2)))
        family.append(VectorField(f"X{len(family) + 1}", tuple(q * c for c in X.components),
                                  rng.choice([X.domain, domain()])))
    return family


class TestAgainstAllPairs:
    """The filtration builds [X_i, X_j] of depth 2 only for i > j and keys
    its words on exponent maps; its words, their order, names, components
    and domains, and its certificate, are those of the definition, every
    pair bracketed by ``lie_bracket``."""

    def check(self, family, depth_cap):
        for fam in (family, list(time_extended(family))):
            filt = filtration(fam, depth_cap)
            assert (filt.levels, filt.stabilized_at, filt.certificate) == all_pairs_reference(
                fam, depth_cap)

    def test_random_polynomial_families(self):
        rng = random.Random(54)
        for _ in range(150):
            self.check(random_family(rng), 4)

    @pytest.mark.parametrize("name", ["one-sided-flat", "two-sided-flat"])
    def test_flat_presets(self, name):
        family = preset_family(name)
        assert not all(g.is_polynomial() for g in family)
        self.check(family, 6)

    def test_lie_prints_one_word_per_pair_on_restricted_domains(self, tmp_path, capsys):
        # [X1, X2] = -[X2, X1], both on x1 > 0 and x2 > 0 whichever generator
        # brings which constraint
        path = tmp_path / "half-planes.vf"
        path.write_text("system half-planes dim 2\nfield X1 = (1, 0) on x1 > 0\n"
                        "field X2 = (0, x1) on x2 > 0\n")
        assert cli.main(["lie", "--system", str(path), "--point=1,1", "--depth", "2",
                         "--format", "json"]) == 0
        words = json.loads(capsys.readouterr().out)["results"]["words"]
        assert [(w["word"], w["components"]) for w in words] == [
            ("X1", ["1", "0"]), ("X2", ["0", "x1"]), ("[X2,X1]", ["0", "-1"])]


ORACLE_CAPS = (2, 4, 6)
ORACLE_AXIS = {1: (-3, -2, -1, 0, 1, 2, 3), 2: (-2, -1, 0, 1, 2), 3: (-2, 0, 1)}


def zero_time_reference(family, points, caps):
    """Per cap, per point: the rank of the zero-time ideal
    L0 = {sum c_i X_i : sum c_i = 0} + [L, L] from its own spanning set,
    the differences X_i - X_1 of the generators defined there and every
    nonzero left-nested bracket of depth 2..cap, each built here by
    ``lie_bracket`` (None where no generator is defined)."""
    brackets, level = [], list(family)
    for _ in range(2, max(caps) + 1):
        built = {}
        for f in level:
            for g in family:
                b = lie_bracket(g, f)
                if not b.is_zero():
                    built.setdefault((b.components, b.domain), b)
        level = list(built.values())
        brackets.append(level)
    generators = field_values(family, points)
    ranks = []
    for cap in caps:
        words = [b for level in brackets[:cap - 1] for b in level]
        row = []
        for gens, vals in zip(generators, field_values(words, points)):
            defined = [v for v in gens if v is not None]
            row.append(None if not defined else span_rank(
                [[a - b for a, b in zip(v, defined[0])] for v in defined[1:]]
                + [v for v in vals if v is not None]))
        ranks.append(row)
    return ranks


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_time_extension_ranks_the_zero_time_ideal(name):
    # Lie(Y)(x, 0) = R*Y_j + (L0(x) x 0) and its projection is Lie(F)(x):
    # at every cap, Y's rank minus 1 is L0's, and so is the rank of the
    # vectors that ideal_vectors reads from Y's words, and the projected
    # rank is Lie(F)'s
    family = preset_family(name)
    n = family[0].dim
    points = list(itertools.product([Fraction(k, 2) for k in ORACLE_AXIS[n]], repeat=n))
    starts = [(*p, 0) for p in points]
    extended = time_extended(family)
    walk = list(word_vectors(extended, field_values(extended, starts), starts, max(ORACLE_CAPS)))
    lie = list(word_vectors(family, field_values(family, points), points, max(ORACLE_CAPS)))
    cases = 0
    for cap, reference in zip(ORACLE_CAPS, zero_time_reference(family, points, ORACLE_CAPS)):
        (_, vectors, _), (_, lie_vectors, _) = walk[cap - 1], lie[cap - 1]
        for p, words, lie_words, ideal in zip(points, vectors, lie_vectors, reference):
            if ideal is None:
                assert words == [], p
                continue
            assert span_rank(words) - 1 == span_rank(ideal_vectors(words)) == ideal, (cap, p)
            assert span_rank([w[:-1] for w in words]) == span_rank(lie_words), (cap, p)
            cases += 1
    assert cases >= len(ORACLE_CAPS) * len(points) // 2


CENSUS = pathlib.Path(__file__).parent / "data" / "fixed-time-census-seed7.json"


def test_ladder_ranks_every_word_until_full():
    # at the fixed-time census starts p (and (p, 0) for the time extension
    # Y): per depth d, the ladder's rank is the span rank of every word of
    # depth <= d, each evaluated on its own, under either view; a point's
    # words are all of those until the depth where its rank is full (n for
    # F's words and the ideal's vectors, n + 1 for Y's own words), and stop
    # growing there
    starts = {}
    for name, point, *_ in json.loads(CENSUS.read_text()):
        starts.setdefault(name, {})[tuple(Fraction(x) for x in point.split(","))] = None
    assert sorted(starts) == sorted(PRESETS)
    # 224 of the 603 (family, point, view) cases reach full rank below the cap
    assert sum(_ladder_against_every_word(preset_family(name), list(points))
               for name, points in starts.items()) == 224


def _ladder_against_every_word(family, points):
    """The checks of ``test_ladder_ranks_every_word_until_full`` at the
    points, and how many (family, point, view) cases froze before the cap."""
    assert len(points) == 3 ** family[0].dim
    starts = [(*p, 0) for p in points]
    extended = time_extended(family)
    frozen = 0
    for fam, at, view, full in [(family, points, None, len(points[0])),
                                (extended, starts, None, len(starts[0])),
                                (extended, starts, ideal_vectors, len(points[0]))]:
        levels = filtration(fam).levels
        counts = list(itertools.accumulate(len(level) for level in levels))
        every = field_values([f for level in levels for _, f in level], at)
        ladder = list(word_vectors(fam, field_values(fam, at), at, view=view))
        for k in range(len(at)):
            reached = None
            for d, (_, vectors, ranks) in enumerate(ladder):
                reference = [v for v in every[k][:counts[d]] if v is not None]
                assert ranks[k] == span_rank((view or list)(reference)), (at[k], view, d + 1)
                if reached is None:
                    assert vectors[k] == reference, (at[k], view, d + 1)
                    reached = d if ranks[k] == full else None
                else:
                    assert vectors[k] == ladder[reached][1][k], (at[k], view, d + 1)
            frozen += reached is not None and reached < len(ladder) - 1
    return frozen


class TestDerivedCertificate:
    """The zero-time ideal, and with it [L, L], is certified by the
    stabilization certificate of the time-extended family: the module that
    its words generate is closed under every ad Y_i."""

    def test_closure_and_uncertified_pass_through(self, diag):
        assert filtration(time_extended(diag)).certificate == "symbolic-closure"
        mixed = filtration(time_extended(preset_family("mixed-degree-pair")))
        assert mixed.certificate is None and certify(mixed).certificate is None

    def test_module_certificate_one_system_per_depth(self, monkeypatch):
        solved = []

        def counting(targets, basis, degree):
            solved.append((len(targets), len(basis)))
            return module_contains(targets, basis, degree)

        module_contains = liealg.module_contains
        f = filtration(time_extended(preset_family("vanishing-pair")))
        monkeypatch.setattr(liealg, "module_contains", counting)
        g = certify(f)
        assert (g.certificate, g.stabilized_at) == ("module-degree-6", 3)
        # depths 1 and 2 are not in the module of the shallower words, 3 is
        kept = [len(level) for level in f.levels]
        assert solved == [(kept[d], sum(kept[:d])) for d in (1, 2, 3)]

    def test_oversize_stops_uncertified(self, monkeypatch):
        # the first system's solve rejects it before any monomial is
        # enumerated, and the search stops there uncertified
        def enumerated(n, d):
            raise AssertionError("monomials enumerated for an over-cap system")

        f = filtration(time_extended(preset_family("vanishing-pair")))
        monkeypatch.setattr(membership, "UNKNOWNS_CAP", 10)
        monkeypatch.setattr(membership, "_monomials_up_to", enumerated)
        g = certify(f)
        assert g.certificate is None and g.note.startswith("module search stopped at depth 1")


class TestGeneratorRobustness:
    def test_module_multiples_do_not_change_rank(self, shear, diag, vf):
        rng = np.random.default_rng(23)
        fams = [shear, diag, [vf("A", ["x2", "0"], 2), vf("B", ["0", "x1"], 2)]]
        multipliers = [parse(t, 2) for t in ["x1", "x2 - 2", "x1*x2 + 1"]]
        pts = [(0, 0), (1, 0), (1, 1), (Fraction(1, 2), Fraction(-3, 2))]
        cap = 4
        for fam in fams:
            for f in multipliers:
                which = int(rng.integers(0, len(fam)))
                aug = list(fam) + [multiply_field(f, fam[which])]
                for p in pts:
                    assert lie_rank(fam, p, cap + 1) == lie_rank(aug, p, cap + 1)

    def test_rescaling_never_changes_rank(self, shear):
        aug = list(shear) + [multiply_field(const(Fraction(5, 3)), shear[0])]
        for p in [(0, 0), (2, 1)]:
            assert lie_rank(shear, p, 4) == lie_rank(aug, p, 4)

    def test_generator_dependence_regression_pair(self, flat, shear):
        # same smooth distribution away from the flat wall, different ranks
        assert lie_rank(flat, (0, 0), 8) == 1
        assert lie_rank(shear, (0, 0), 8) == 2
