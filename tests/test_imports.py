"""Modules of vfkit use each other only through public names."""

import ast
import importlib
import inspect
import json
import pathlib
import re
import subprocess

import pytest

import vfkit

from conftest import fresh_process

SRC = pathlib.Path(vfkit.__file__).parent


def test_no_private_cross_module_imports():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "vfkit"
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offences.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offences == []


def test_every_public_name_resolves():
    stale = []
    for path in sorted(SRC.glob("*.py")):
        name = "vfkit" if path.stem == "__init__" else f"vfkit.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{entry}" for entry in getattr(module, "__all__", ())
                  if not hasattr(module, entry)]
    assert stale == []


# Public functions that no other module, demo or benchmark uses, each kept
# for a reason of its own.
UNREFERENCED_PUBLIC = {
    "exact_certificate": "the one exactness rule that ROADMAP's guardrail names; exact_ranks "
                         "applies it",
    "members_bounded": "the many-target form of member_bounded, one solve for all targets",
    "nagano_certified": "names the condition under which exact_certificate trusts Nagano",
    "steer_linear": "the double integrator's closed-form steering, which its facts check",
    "pushforward_along_word": "vfkit's lazily exported one-word pushforward, which "
                              "perfbench/tracer.py times as a layer",
}
ROOT = pathlib.Path(__file__).resolve().parent.parent
USERS = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _identifiers(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_function_is_used_outside_its_module():
    used = {path: _identifiers(path) for path in USERS}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "vfkit" if path.stem == "__init__" else f"vfkit.{path.stem}")
        unused += [entry for entry in getattr(module, "__all__", ())
                   if inspect.isfunction(getattr(module, entry))
                   and not any(entry in names for p, names in used.items() if p != path)]
    assert sorted(unused) == sorted(UNREFERENCED_PUBLIC)


# Thresholds, caps and sample settings are module constants: a parameter
# defaulting to one of them would be a second, per-call way to set it.
MODULE_CONSTANTS = {
    "VALUE_REL_TOL",
    "FLOW_REL_TOL",
    "DEFAULT_RTOL",
    "DEFAULT_BOX",
    "DEGREE_CAP",
    "UNKNOWNS_CAP",
    "GRID_POINTS_CAP",
    "CHART_RADIUS",
    "FIRST_WORDS",
}


def _default_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_no_parameter_defaults_to_a_module_constant():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
                name = _default_name(default)
                if name in MODULE_CONSTANTS:
                    offences.append(f"{path.name}:{default.lineno} defaults to {name}")
    assert offences == []


# The only process-wide caches: ``perfbench/run.py`` empties exactly these
# before every pass, as a CLI user pays for them on every invocation.  Any
# other cache would let later passes reuse the first one's work.
CLEARED_CACHES = {("fields.py", "_flow_kind"), ("fields.py", "jacobian_exprs")}
CACHE_NAMES = {"lru_cache", "cache"}
RUN_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _called_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return _default_name(node)


def test_only_caches_the_benchmark_clears():
    cached, calls = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    decorators.add(id(dec))
                    if _called_name(dec) in CACHE_NAMES:
                        cached.add((path.name, node.name))
        for node in ast.walk(tree):  # a cache built by a plain call, not a decorator
            if (isinstance(node, ast.Call) and id(node) not in decorators
                    and _called_name(node) in CACHE_NAMES):
                calls.append(f"{path.name}:{node.lineno}")
    assert cached == CLEARED_CACHES
    assert calls == []


# The only code outside the flow layer that names its pushforward walks:
# every sampled orbit is the one walk ``orbits.sampled_orbits``, and the
# flow-box chart pushes its frame along its own tangent words.
PUSHFORWARD_WALKS = {"pushforward_along_words", "pushforward_along_word"}
PUSHFORWARD_USERS = {("orbits.py", "sampled_orbits"), ("frobenius.py", "flow_box_chart")}


def test_one_sampled_walk():
    users = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fields.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = node.name if isinstance(node, ast.alias) else _default_name(node)
                if name in PUSHFORWARD_WALKS:
                    users.add((path.name, getattr(top, "name", f"line {top.lineno}")))
    assert users == PUSHFORWARD_USERS


def test_benchmark_clears_every_cache():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    clear = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "clear_lazy_caches")
    cleared = {
        node.value.attr for node in ast.walk(clear)
        if isinstance(node, ast.Attribute) and node.attr == "cache_clear"
        and isinstance(node.value, ast.Attribute)
    }
    assert cleared == {name for _, name in CLEARED_CACHES}


def test_cli_import_leaves_out_scipy_integrate():
    # flows integrate with vfkit's own solver and matrix exponential, so no
    # scipy module is loaded, not even once the double integrator's preset
    # has run and its affine X1 = (x2, 1) has taken a step through ``expm``
    # (the preset's own facts take none); scipy.linalg would add about
    # 0.35 s and 28 MB to every process
    check = ("import sys, vfkit.cli, vfkit.presets as p, vfkit.fields as f, vfkit.systems as s; "
             "calls = []; real = f.expm; f.expm = lambda A: calls.append(A) or real(A); "
             "p.run_preset('double-integrator'); "
             "(X1,) = s.parse_system(p.PRESETS['double-integrator'].system_text).pick(['X1']); "
             "f.apply_word([X1], [(0, 0.5)], (0, 0)); "
             "print(len(calls), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_process(check).stdout.strip() == "1 []"


# Every exact subcommand, run in one process; lie on mixed-degree-pair is
# left out, as at its defaults it takes over a minute.  The generic rank
# comes from the symbolic minors, of an all-zero and a generically
# deficient system too.
EXACT_SYSTEMS = {
    "zero": "system zero dim 2\nfield X1 = (0, 0)\n",
    "deficient": "system deficient dim 2\nfield X1 = (x1, x2)\nfield X2 = (x1*x2, x2^2)\n",
}
EXACT_RUNS = [
    ["bracket", "--system", "linear-shear.vf", "--fields", "X1,X2"],
    ["lie", "--system", "linear-shear.vf", "--point", "1/2,1/2"],
    ["member", "--system", "linear-shear.vf", "--target", "(0, 1)", "--gens", "X1,X2",
     "--degree", "1"],
    ["lie", "--system", "linear-shear.vf", "--point", "1/2,1/2", "--fixed-time-ideal"],
    ["rank", "--system", "linear-shear.vf", "--point", "1/2,1/2"],
    ["member", "--system", "mixed-degree-pair.vf", "--target", "(x2^3, 0)", "--gens", "X1,X2",
     "--degree", "2"],
    ["rank", "--system", "mixed-degree-pair.vf", "--point", "3/8,-5/8"],
    ["rank", "--system", "zero.vf", "--point", "1,1"],
    ["rank", "--system", "deficient.vf", "--point", "1,1"],
]


def test_exact_subcommands_load_no_numpy(tmp_path):
    # brackets, filtrations, membership and ranks at rational points are
    # exact: numpy's import would be most of such a command's time
    from vfkit.presets import PRESETS

    for name in ("linear-shear", "mixed-degree-pair"):
        (tmp_path / f"{name}.vf").write_text(PRESETS[name].system_text)
    for name, text in EXACT_SYSTEMS.items():
        (tmp_path / f"{name}.vf").write_text(text)
    check = f"""
import contextlib, io, sys
from vfkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {EXACT_RUNS!r}]
print(codes, "numpy" in sys.modules)
"""
    assert fresh_process(check, cwd=tmp_path).stdout.strip() == f"{[0] * len(EXACT_RUNS)} False"


FLOW_LAYER = ["numpy", "vfkit.fields"]


def _flow_layer_after(runs, tmp_path):
    """(exit codes, JSON reports, whether each FLOW_LAYER module is loaded)
    after importing presets, orbits and frobenius and running the CLI calls
    in one fresh process, in ``tmp_path`` beside every preset's system file."""
    from vfkit.presets import PRESETS

    for name, preset in PRESETS.items():
        (tmp_path / f"{name}.vf").write_text(preset.system_text)
    check = f"""
import contextlib, io, json, sys
import vfkit.presets, vfkit.orbits, vfkit.frobenius
from vfkit.cli import main
codes, reports = [], []
for argv in {runs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(argv + ["--format", "json"]))
    reports.append(json.loads(out.getvalue()))
print(json.dumps([codes, reports, [m in sys.modules for m in {FLOW_LAYER!r}]]))
"""
    return json.loads(fresh_process(check, cwd=tmp_path).stdout)


def test_exact_paths_load_no_flow_layer(tmp_path):
    # an exact orbit is the rank of its brackets, an exact verdict walks no
    # flow and the preset list is text: none of them loads numpy or fields
    from vfkit.presets import PRESETS

    runs = [["orbit", "--system", "mixed-degree-pair.vf", "--point", "3/8,-5/8"],
            ["frobenius", "--system", "coordinate-plane.vf"],
            ["examples", "--list"]]
    codes, (orbit, verdict, listed), loaded = _flow_layer_after(runs, tmp_path)
    assert codes == [0, 0, 0]
    assert (orbit["results"]["certificate"], orbit["results"]["dimension"]) == ("bracket-rank", 2)
    assert verdict["results"]["integrable"] == "yes"
    assert [p["name"] for p in listed["results"]] == list(PRESETS)
    assert loaded == [False, False]


def test_sampled_orbit_loads_the_flow_layer(tmp_path):
    # the counterpart that keeps the guard above from passing vacuously: a
    # sampled orbit walks flows, and the same check sees both modules loaded
    runs = [["orbit", "--system", "one-sided-flat.vf", "--point", "-1/2,0"]]
    codes, (orbit,), loaded = _flow_layer_after(runs, tmp_path)
    assert (codes, orbit["results"]["certificate"]) == ([0], "sampled")
    assert loaded == [True, True]


TRACER_PY = ROOT / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    # perfbench's tracer rebinds each (module, attribute) of its LAYERS, a
    # plain function at every vfkit module that holds it; a name that moved
    # away, or a second object under the same name, would drop out unseen
    tree = ast.parse(TRACER_PY.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")
    modules = [importlib.import_module("vfkit" if path.stem == "__init__" else f"vfkit.{path.stem}")
               for path in SRC.glob("*.py")]
    unresolved, doubles = [], []
    for _, module_name, attr, _ in layers:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(f"{module_name}.{attr}")
        elif "." not in attr:
            doubles += [f"{m.__name__}.{attr}" for m in modules
                        if getattr(m, attr, obj) is not obj]
    assert (unresolved, doubles) == ([], [])


def test_ode_walk_calls_the_solve_ivp_bound_at_fields(monkeypatch):
    # the tracer counts solve_ivp (and expm) only as vfkit.fields binds it
    from vfkit import fields
    from vfkit.expr import parse
    from vfkit.vectorfield import VectorField

    calls = []
    real = fields.solve_ivp
    monkeypatch.setattr(fields, "solve_ivp", lambda *a: calls.append(1) or real(*a))
    rotation = VectorField("R", (parse("-x2", 2), parse("x1", 2)))
    fields.apply_word([rotation], [(0, 0.5)], (1.0, 0.0))
    fields.pushforward_along_word([rotation], [(0, 0.5)], rotation, (1.0, 0.0))
    assert len(calls) == 2


BUILD_ARTIFACT = re.compile(r"(^|/)__pycache__/|\.pyc$|\.egg-info(/|$)")


def test_no_build_artifact_is_committed():
    # bytecode and egg-info are built from the sources; committed, they go stale
    try:
        listed = subprocess.run(["git", "ls-files"], cwd=ROOT, capture_output=True, text=True,
                                timeout=60)
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if listed.returncode != 0:
        pytest.skip(f"{ROOT} is not a git checkout")
    assert [p for p in listed.stdout.splitlines() if BUILD_ARTIFACT.search(p)] == []
