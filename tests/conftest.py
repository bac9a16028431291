import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import vfkit
from vfkit import fields, vectorfield
from vfkit.cli import main
from vfkit.expr import parse
from vfkit.vectorfield import DomainPredicate, VectorField, field_values
from vfkit.liealg import word_vectors, zero_time_ladder
from vfkit.linalg import span_rank


# ``python -c CLI args...`` runs ``vfkit args...``
CLI = "import sys; from vfkit.cli import main; sys.exit(main(sys.argv[1:]))"


def fresh_process(code, *args, cwd=None, hash_seed=None, check=True):
    """``python -c code *args``, run to its end in a new process that imports
    this checkout's vfkit, under PYTHONHASHSEED=hash_seed when one is given."""
    src = str(pathlib.Path(vfkit.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60, check=check)


def make_field(name, components, dim, constraints=()):
    dom = DomainPredicate(tuple(constraints))
    return VectorField(name, tuple(parse(c, dim) for c in components), dom)


@pytest.fixture
def vf():
    return make_field


def multiply_field(f, X):
    """The module action f*X: each component of X times f, on X's domain."""
    return VectorField(f"f*{X.name}", tuple(f * c for c in X.components), X.domain)


def lie_ranks_by_depth(family, point, depth_cap=6):
    """The rank at the point of the bracket words of depth <= d, for
    d = 1, ..., depth_cap, read from the ladder ``liealg.word_vectors``."""
    values = field_values(family, [point])
    return [rank for _, _, (rank,) in word_vectors(family, values, [point], depth_cap)]


def lie_rank(family, point, depth_cap=6):
    """The rank at the point of every bracket word up to the cap."""
    return lie_ranks_by_depth(family, point, depth_cap)[-1]


def fixed_time_ranks(family, point, depth_cap=6):
    """(rank of the zero-time ideal, rank of the Lie algebra) at the point:
    the rank at the cap of ``liealg.zero_time_ladder``, which ranks the
    time-extended family's words at (point, 0), and the rank of those words
    with their last coordinate dropped."""
    ladder = zero_time_ladder(family, field_values(family, [point]), [point], depth_cap)
    *_, (_, (words,), (ideal,)) = ladder
    return ideal, span_rank([w[:-1] for w in words])


def lie_fixed_time_ideal(family, point, tmp_path):
    """(exit code, JSON report) of ``vfkit lie --fixed-time-ideal`` on the
    family at the point; the report's ``fixed_time_ideal`` holds the ideal
    rank, the Lie rank and the codimension, which the command checks."""
    path = tmp_path / "family.vf"
    path.write_text(f"system family dim {family[0].dim}\n"
                    + "".join(f"field {X}\n" for X in family))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lie", "--system", str(path), "--point=" + ",".join(map(str, point)),
                     "--fixed-time-ideal", "--format", "json"])
    return code, json.loads(out.getvalue())


def frac_grid(lo, hi, denom):
    return [Fraction(k, denom) for k in range(lo * denom, hi * denom + 1)]


@pytest.fixture
def flow_steps(monkeypatch):
    """(field, time) of every flow step taken while the test runs, one per
    walked row of each stacked step."""
    steps = []
    real = fields._step_group

    def counted(X, ts, *args):
        steps.extend((X, t) for t in ts)
        return real(X, ts, *args)

    monkeypatch.setattr(fields, "_step_group", counted)
    return steps


def spy_brackets(monkeypatch, record):
    """Call record(xs, ys) before every bracket [X, Y] that vfkit builds, by
    ``lie_bracket`` or in a filtration: the one kernel they all call,
    ``vectorfield.bracket_components``, is rebound at every vfkit module that
    holds it."""
    real = vectorfield.bracket_components

    def spy(xs, ys, *dxs):
        record(xs, ys)
        return real(xs, ys, *dxs)

    for name, module in list(sys.modules.items()):
        if name.startswith("vfkit.") and vars(module).get("bracket_components") is real:
            monkeypatch.setattr(module, "bracket_components", spy)
