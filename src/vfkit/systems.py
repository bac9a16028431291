"""The system file format and small parsing helpers shared with the CLI.

A system file is UTF-8 text:

    system <name> dim <n>
    field <Name> = (<expr>, ..., <expr>) [on x<i> < <rational> [and ...]]

Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .expr import ParseError, parse
from .fields import DomainPredicate, VectorField

__all__ = [
    "System",
    "SystemParseError",
    "UsageError",
    "GRID_POINTS_CAP",
    "parse_system",
    "parse_point",
    "parse_grid",
    "parse_target",
]


# Most points a grid spec may describe (the largest grid in the tests,
# demos and benchmark has 81).
GRID_POINTS_CAP = 10_000


class UsageError(Exception):
    """A well-formed input outside the range the CLI accepts."""


class SystemParseError(Exception):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class System:
    name: str
    dim: int
    fields: Tuple[VectorField, ...]

    def pick(self, names):
        by_name = {f.name: f for f in self.fields}
        out = []
        for name in names:
            if name not in by_name:
                raise SystemParseError(
                    f"unknown field {name!r}; system has {sorted(by_name)}"
                )
            out.append(by_name[name])
        return out


_HEADER = re.compile(r"^system\s+(\S+)\s+dim\s+(\d+)\s*$")
_FIELD = re.compile(r"^field\s+(\S+)\s*=\s*\((.*)\)\s*(?:on\s+(.*))?$")
_INEQ = re.compile(r"^x(\d+)\s*(<|>)\s*(-?\d+(?:/\d+)?)$")


def _split_components(body, line_no):
    parts = []
    depth = 0
    current = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SystemParseError("unbalanced parentheses", line_no)
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_system(text):
    lines = text.splitlines()
    header = None
    fields: List[VectorField] = []
    dim = None
    name = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            m = _HEADER.match(line)
            if not m:
                raise SystemParseError(
                    "expected header 'system <name> dim <n>'", line_no
                )
            header = m
            name = m.group(1)
            dim = int(m.group(2))
            if dim < 1:
                raise SystemParseError("dimension must be positive", line_no)
            continue
        m = _FIELD.match(line)
        if not m:
            raise SystemParseError(
                "expected 'field <Name> = (<expr>, ..., <expr>) [on ...]'", line_no
            )
        fname, body, on_clause = m.group(1), m.group(2), m.group(3)
        comp_texts = _split_components(body, line_no)
        if len(comp_texts) != dim:
            raise SystemParseError(
                f"field {fname} has {len(comp_texts)} components, expected {dim}",
                line_no,
            )
        try:
            comps = tuple(parse(t, dim) for t in comp_texts)
        except ParseError as err:
            raise SystemParseError(f"in field {fname}: {err}", line_no) from err
        constraints = []
        if on_clause:
            for piece in re.split(r"\s+and\s+", on_clause.strip()):
                mm = _INEQ.match(piece.strip())
                if not mm:
                    raise SystemParseError(
                        f"bad inequality {piece!r} (use x<i> < <rational>)", line_no
                    )
                idx = int(mm.group(1))
                if idx < 1 or idx > dim:
                    raise SystemParseError(
                        f"inequality on x{idx} outside dimension {dim}", line_no
                    )
                constraints.append((idx, mm.group(2), Fraction(mm.group(3))))
        fields.append(VectorField(fname, comps, DomainPredicate(tuple(constraints))))
    if header is None:
        raise SystemParseError("empty system file")
    if not fields:
        raise SystemParseError("system declares no fields")
    return System(name, dim, tuple(fields))


def parse_point(text, dim):
    """Parse 'a,b,...' with rational entries into an exact point."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise SystemParseError(f"point has {len(parts)} coordinates, expected {dim}")
    return tuple(_rational(p, "coordinate") for p in parts)


def parse_target(text, dim):
    """Parse a target field '(e1,...,en)' into its n component expressions."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise SystemParseError('target must look like "(e1,...,en)"')
    comps = _split_components(body[1:-1], 1)
    if len(comps) != dim:
        raise SystemParseError(f"target has {len(comps)} components, expected {dim}")
    return tuple(parse(t, dim) for t in comps)


_GRID_AXIS = re.compile(r"^x(\d+)=(-?[\d./]+):(-?[\d./]+):(-?[\d./]+)$")


def parse_grid(spec, dim):
    """Parse 'x1=-1:1:0.25,x2=-1:1:0.25' into {index: [values]} (exact).

    The points are counted before any is built: a grid of more than
    ``GRID_POINTS_CAP`` points is a UsageError."""
    axes: Dict[int, Tuple[Fraction, Fraction, int]] = {}
    for piece in spec.split(","):
        m = _GRID_AXIS.match(piece.strip())
        if not m:
            raise SystemParseError(f"bad grid axis {piece!r} (use x<i>=lo:hi:step)")
        idx = int(m.group(1))
        if idx < 1 or idx > dim:
            raise SystemParseError(f"grid axis x{idx} outside dimension {dim}")
        lo, hi, step = (_grid_value(m.group(k)) for k in (2, 3, 4))
        if step <= 0:
            raise SystemParseError("grid step must be positive")
        axes[idx] = (lo, step, max(0, (hi - lo) // step + 1))
    points = math.prod(count for _, _, count in axes.values())
    if points > GRID_POINTS_CAP:
        raise UsageError(f"grid has {points} points, more than {GRID_POINTS_CAP}")
    return {
        idx: [lo + k * step for k in range(count)]
        for idx, (lo, step, count) in axes.items()
    }


def _grid_value(text):
    value = _rational(text, "grid value")
    return value.limit_denominator(10**9) if "." in text else value


def _rational(text, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise SystemParseError(f"bad {what} {text!r}: {err}") from err
