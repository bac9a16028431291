"""The reports keep their bytes.

The exact invocations report only rationals, strings and fixed tolerance
constants, so their JSON does not depend on the platform's floats.  The
sampled ones (``SAMPLED``) pin the seeded flow words as well: their float
vectors and word counts change if a word, or a flow's arithmetic, does.
Each golden file under ``tests/golden`` holds the stdout of one
invocation; a change that alters any of them must say which bytes changed
and why.
"""

import pathlib

import pytest

from vfkit.cli import main
from vfkit.presets import PRESETS

from conftest import CLI, fresh_process

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(__file__).parent / "data"

PLANE_GRID = "x1=-1:1:1/2,x2=-1:1:1/2"
# preset name: (point, rank grid, bracket pair, member (target, gens, degree)s)
SYSTEMS = {
    "linear-shear": ("1/2,3/4", PLANE_GRID, "X1,X2", [
        ("(0,1)", "X1,X2", "1"),
        ("(0,x1^2)", "X2", "3"),
    ]),
    "vanishing-pair": ("1/2,3/4", PLANE_GRID, "X1,X2", [
        ("(-2*x2*(x1^2+x2^2), 2*x1*(x1^2+x2^2))", "X1,X2", "1"),
        ("(x1, 0)", "X1,X2", "2"),
    ]),
    "mixed-degree-pair": ("1/2,3/4", PLANE_GRID, "X1,X2", [
        ("(x1*(x1^2+x2^2), x2^2*(x1^4+x2^4))", "X1,X2", "2"),
        ("(0, x1^2+x2^2)", "X1,X2", "3"),
    ]),
    "umbrella-ideal": ("1/2,3/4,1/3", "x1=-1:1:1,x2=-1:1:1,x3=-1:1:1", "U,U", [
        ("(x1*(x3*(x1^2+x2^2) - x2^3), 0, 0)", "U", "2"),
        ("(x1, 0, 0)", "U", "3"),
    ]),
}
# presets whose default-grid ``frobenius`` report holds only rationals,
# strings and integer ranks (the flat presets sample orbits at 6 and 3 grid
# points, but no float reaches the report)
FROBENIUS = ["linear-shear", "vanishing-pair", "umbrella-ideal", "coordinate-plane",
             "mixed-degree-pair", "one-sided-flat", "two-sided-flat"]
# reports of the sampling commands at one seed: (case, preset name, argv
# after --system); nine-orbits is Nagano-certified, so its 300 words are
# never drawn; at (3, 4) only X2 of half-plane-translations is defined, so
# both the fixed-time dimension and the orbit are sampled, by one walk; on
# two-sided-flat the zero-time ideal has rank n at the start (-1/2, 0), so
# only the seed word is walked, to the flat (0, 0)
# float-free reports of non-polynomial brackets: the flat presets, and a
# family that mixes exp, bump and division (``tests/data``), whose products
# expand positive powers of inverse bases: (case, system, argv after --system)
NON_POLYNOMIAL = [
    ("one-sided-flat-bracket", "one-sided-flat", ["bracket", "--fields", "X1,X2"]),
    ("one-sided-flat-lie-depth8", "one-sided-flat",
     ["lie", "--point", "1/2,1/2", "--depth", "8"]),
    ("two-sided-flat-bracket", "two-sided-flat", ["bracket", "--fields", "X1,X2"]),
    ("two-sided-flat-lie-depth8", "two-sided-flat",
     ["lie", "--point", "1/2,1/2", "--depth", "8"]),
    ("exp-bump-division-lie", "exp-bump-division",
     ["lie", "--point", "1/2,1/3", "--depth", "3"]),
]
SAMPLED_SEED = "7"
SAMPLED = [
    ("one-sided-flat-orbit", "one-sided-flat", ["orbit", "--point=-1/2,1/2"]),
    ("half-plane-translations-orbit", "half-plane-translations",
     ["orbit", "--point=-5/4,0"]),
    ("nine-orbits-orbit-words300", "nine-orbits", ["orbit", "--point=1,0", "--words", "300"]),
    ("two-sided-flat-orbit-fixed-time", "two-sided-flat",
     ["orbit", "--point=-1/2,0", "--fixed-time", "1/2"]),
    ("half-plane-translations-orbit-fixed-time-0", "half-plane-translations",
     ["orbit", "--point=3,4", "--fixed-time", "0"]),
    ("one-sided-flat-frobenius-seed7", "one-sided-flat", ["frobenius"]),
]


def _cases():
    cases = []
    for name, (point, grid, pair, members) in SYSTEMS.items():
        runs = [
            ("bracket", ["bracket", "--fields", pair]),
            ("rank-point", ["rank", "--point", point]),
            ("rank-grid", ["rank", "--grid", grid]),
        ]
        for tag, extra in (("", []), ("-deg2", ["--module-degree", "2"])):
            lie = ["lie", "--point", point] + extra
            runs.append((f"lie{tag}", lie))
            runs.append((f"lie{tag}-ideal", lie + ["--fixed-time-ideal"]))
        for k, (target, gens, degree) in enumerate(members):
            runs.append((f"member-{k}", ["member", "--target", target,
                                         "--gens", gens, "--degree", degree]))
        cases.extend((f"{name}-{run}", name, argv) for run, argv in runs)
    cases.extend((f"{name}-frobenius", name, ["frobenius"]) for name in FROBENIUS)
    cases.extend(NON_POLYNOMIAL)
    cases.extend((case, name, argv + ["--seed", SAMPLED_SEED]) for case, name, argv in SAMPLED)
    return cases


CASES = _cases()


@pytest.mark.parametrize("case,name,argv", CASES, ids=[c for c, _, _ in CASES])
def test_report_matches_golden_bytes(case, name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = PRESETS[name].system_text if name in PRESETS else (DATA / f"{name}.vf").read_text()
    (tmp_path / f"{name}.vf").write_text(text)
    code = main([argv[0], "--system", f"{name}.vf", *argv[1:], "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{case}.json").read_text()


@pytest.mark.parametrize("case,name,argv", SAMPLED, ids=[c for c, _, _ in SAMPLED])
def test_sampled_report_matches_golden_bytes_in_a_fresh_process(case, name, argv, tmp_path):
    # the seeded words and their flows give the same floats in a new process,
    # at another hash seed and with nothing cached by earlier tests
    (tmp_path / f"{name}.vf").write_text(PRESETS[name].system_text)
    run = fresh_process(CLI, argv[0], "--system", f"{name}.vf", *argv[1:], "--seed", SAMPLED_SEED,
                        "--format", "json", cwd=tmp_path, hash_seed=12345)
    assert run.stdout == (GOLDEN / f"{case}.json").read_text()


def test_examples_list_matches_golden_bytes(capsys):
    # every preset's name, title and order, and every fact's id, tag and text
    assert main(["examples", "--list", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "examples-list.json").read_text()
