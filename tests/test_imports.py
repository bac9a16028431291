"""Modules of vfkit use each other only through public names."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import vfkit

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


def _fresh_process(code, cwd=None):
    """Standard output of ``python -c code`` in a new process that imports
    this checkout's vfkit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=60, check=True).stdout.strip()


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
    assert _fresh_process(check) == "1 []"


# Every exact subcommand, run in one process; lie on mixed-degree-pair is
# left out, as at its defaults it takes over a minute.
EXACT_RUNS = [
    ["bracket", "--system", "linear-shear.vf", "--fields", "X1,X2"],
    ["lie", "--system", "linear-shear.vf", "--point", "1/2,1/2"],
    ["member", "--system", "linear-shear.vf", "--target", "(0, 1)", "--gens", "X1,X2",
     "--degree", "1"],
    ["rank", "--system", "linear-shear.vf", "--point", "1/2,1/2"],
    ["member", "--system", "mixed-degree-pair.vf", "--target", "(x2^3, 0)", "--gens", "X1,X2",
     "--degree", "2"],
    ["rank", "--system", "mixed-degree-pair.vf", "--point", "3/8,-5/8"],
]


def test_exact_subcommands_load_no_numpy(tmp_path):
    # brackets, filtrations, membership and ranks at rational points are
    # exact: numpy's import would be most of such a command's time
    from vfkit.presets import PRESETS

    for name in ("linear-shear", "mixed-degree-pair"):
        (tmp_path / f"{name}.vf").write_text(PRESETS[name].system_text)
    check = f"""
import contextlib, io, sys
from vfkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {EXACT_RUNS!r}]
print(codes, "numpy" in sys.modules)
"""
    assert _fresh_process(check, cwd=tmp_path) == f"{[0] * len(EXACT_RUNS)} False"


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
