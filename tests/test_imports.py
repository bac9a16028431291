"""Modules of vfkit use each other only through public names."""

import ast
import pathlib

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
