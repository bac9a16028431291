"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 numeric failure,
4 expected-fact mismatch (``examples --run``).  JSON reports are emitted
with sorted keys, so identical invocations with identical seeds are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

import numpy as np

from .distributions import (
    Distribution,
    classify_grid,
    grid_points,
    rank_at,
    singular_locus_minors,
)
from .expr import ExprError
from .fields import FlowError, lie_bracket
from .frobenius import DEFAULT_INVOLUTIVITY_DEGREE, flow_box_chart, frobenius_verdict
from .liealg import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_MODULE_DEGREE,
    DEPTH_CAP_LIMIT,
    LieAlgebraError,
    filtration,
    fixed_time_ideal_rank,
)
from .linalg import FLOW_REL_TOL, VALUE_REL_TOL
from .membership import DEGREE_CAP, MembershipError, member_bounded
from .orbits import WordSampler, fixed_time_dimension, orbit_dimension
from .presets import PRESETS, run_preset
from .systems import (
    SystemParseError,
    UsageError,
    parse_grid,
    parse_point,
    parse_system,
    parse_target,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_FACTS = 4

# Largest --words and --max-len that orbit accepts (no test, demo, preset or
# benchmark samples more than 400 words or words longer than 8).
WORDS_CAP = 5_000
MAX_LEN_CAP = 32


def _jsonable(x):
    if isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in x]
    return x


def _emit(report, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(_jsonable(report), stream, sort_keys=True, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        rows = report.get("results")
        if isinstance(rows, dict) and "csv_rows" in rows:
            for row in rows["csv_rows"]:
                stream.write(",".join(str(c) for c in row) + "\n")
        else:
            _emit(report, "json", stream)
    else:
        _print_text(report, stream)


def _print_text(report, stream):
    stream.write(f"# {report['command']} (seed {report['seed']})\n")
    if report.get("error"):
        stream.write(f"error: {report['error']}\n")
        return
    results = report["results"]
    if isinstance(results, dict):
        for key, value in results.items():
            if key == "csv_rows":
                continue
            stream.write(f"{key}: {_text_value(value)}\n")
    else:
        for item in results:
            stream.write(f"{_text_value(item)}\n")


def _text_value(v):
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(_jsonable(v), sort_keys=True)
    return str(v)


def _report(command, seed, results, status="ok", system=None, error=None, tolerances=None):
    return {
        "schema_version": 1,
        "command": command,
        "seed": int(seed),
        "system": system,
        "status": status,
        "error": error,
        "tolerances": tolerances or {},
        "results": results,
    }


def _load_system(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_system(fh.read())
    except OSError as err:
        raise SystemParseError(f"cannot read {path}: {err}") from err


def _default_seed():
    env = os.environ.get("VFKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemParseError(f"VFKIT_SEED must be an integer, got {env!r}")
    return 0


def _time(text):
    """A flow time given as a decimal or a rational such as 1/2."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid time {text!r}") from None


def _flow_point(text, dim, flag):
    """A point that flows start from: parsed as any point is, with every
    coordinate inside the float range that flows are integrated in."""
    p = parse_point(text, dim)
    for i, c in enumerate(p):
        try:
            float(c)
        except OverflowError:
            raise UsageError(f"{flag} coordinate x{i + 1} lies beyond the float "
                             "range that flows are integrated in") from None
    return p


def _check_ranges(args):
    """Usage errors for integer options outside the ranges the library
    accepts, raised before any system is read."""
    for name, lo, hi in (("depth", 1, DEPTH_CAP_LIMIT), ("degree", 0, DEGREE_CAP),
                         ("module_degree", 0, DEGREE_CAP), ("words", 1, WORDS_CAP),
                         ("max_len", 1, MAX_LEN_CAP)):
        value = getattr(args, name, None)
        if value is not None and not lo <= value <= hi:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must lie in [{lo}, {hi}], got {value}")


def _add_common(p, system_required=True):
    p.add_argument("--system", required=system_required, help="system file path")
    p.add_argument("--format", default="text", choices=["json", "csv", "text"])
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: VFKIT_SEED or 0)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="vfkit",
        description="symbolic-numeric analysis of families of vector fields",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two named fields")
    _add_common(p)
    p.add_argument("--fields", required=True, help="comma-separated pair, e.g. X1,X2")

    p = sub.add_parser("rank", help="fibre rank at a point or over a grid")
    _add_common(p)
    p.add_argument("--point", help="comma-separated rational coordinates")
    p.add_argument("--grid", help='grid spec like "x1=-1:1:1/4,x2=-1:1:1/4"')

    p = sub.add_parser("lie", help="bracket filtration ranks at a point")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH_CAP)
    p.add_argument("--module-degree", type=int, default=DEFAULT_MODULE_DEGREE)
    p.add_argument("--fixed-time-ideal", action="store_true",
                   help="also report the fixed-time ideal rank and codimension")

    p = sub.add_parser("member", help="degree-bounded module membership")
    _add_common(p)
    p.add_argument("--target", required=True, help='target field "(e1,...,en)"')
    p.add_argument("--gens", required=True, help="comma-separated generator names")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("orbit", help="sampled orbit (or fixed-time) dimension")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--words", type=int, default=WordSampler.count)
    p.add_argument("--max-len", type=int, default=WordSampler.max_len)
    p.add_argument("--max-time", type=_time, default=WordSampler.max_time)
    p.add_argument("--fixed-time", type=_time, default=None)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH_CAP)

    p = sub.add_parser("frobenius", help="integrability verdict")
    _add_common(p)
    p.add_argument("--grid", default=None)
    p.add_argument("--module-degree", type=int, default=DEFAULT_INVOLUTIVITY_DEGREE)
    p.add_argument("--chart-point", default=None,
                   help="also attempt a flow-box chart at this point")

    p = sub.add_parser("examples", help="list or run the preset corpus")
    p.add_argument("--format", default="text", choices=["json", "csv", "text"])
    p.add_argument("--seed", type=int, default=None)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--list", action="store_true")
    g.add_argument("--run", metavar="NAME")
    g.add_argument("--run-all", action="store_true")
    return ap


def _join_signed_values(argv):
    """Each ``--flag -3,0`` pair as ``--flag=-3,0``: argparse reads a value
    such as -3,0 or -1/2 as an option."""
    out = []
    for arg in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(_join_signed_values(argv))
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        seed = args.seed if args.seed is not None else _default_seed()
    except SystemParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    handler = {
        "bracket": _cmd_bracket,
        "rank": _cmd_rank,
        "lie": _cmd_lie,
        "member": _cmd_member,
        "orbit": _cmd_orbit,
        "frobenius": _cmd_frobenius,
        "examples": _cmd_examples,
    }[args.cmd]
    try:
        _check_ranges(args)
        report, code = handler(args, seed)
    except UsageError as err:
        report = _report(args.cmd, seed, {}, status="usage-error", error=str(err))
        code = EXIT_USAGE
    except (SystemParseError, ExprError) as err:
        report = _report(args.cmd, seed, {}, status="parse-error", error=str(err))
        code = EXIT_PARSE
    except (FlowError, LieAlgebraError, MembershipError, ValueError) as err:
        report = _report(args.cmd, seed, {}, status="numeric-failure", error=str(err))
        code = EXIT_NUMERIC
    report["argv"] = argv
    _emit(report, args.format)
    return code


def _cmd_bracket(args, seed):
    system = _load_system(args.system)
    names = [n.strip() for n in args.fields.split(",")]
    if len(names) != 2:
        raise UsageError("--fields expects exactly two names")
    X, Y = system.pick(names)
    b = lie_bracket(X, Y)
    results = {
        "fields": names,
        "bracket": [str(c) for c in b.components],
        "domain": str(b.domain),
    }
    return _report("bracket", seed, results, system=system.name), EXIT_OK


def _cmd_rank(args, seed):
    system = _load_system(args.system)
    D = Distribution(system.fields)
    if bool(args.point) == bool(args.grid):
        raise UsageError("rank needs exactly one of --point or --grid")
    if args.point:
        p = parse_point(args.point, system.dim)
        rep = rank_at(D, p)
        results = {
            "point": list(p),
            "rank": rep.rank,
            "method": rep.method,
            "witness_generators": [system.fields[i].name for i in rep.witness],
            "excluded_generators": [system.fields[i].name for i in rep.excluded],
        }
        if D.minors_obstacle() is None:
            locus = singular_locus_minors(D)
            results["generic_rank"] = locus.generic_rank
            results["minors"] = [str(m) for m in locus.minors]
        return _report("rank", seed, results, system=system.name,
                       tolerances={"svd_rel_tol": VALUE_REL_TOL}), EXIT_OK
    axes = parse_grid(args.grid, system.dim)
    gc = classify_grid(D, axes)
    rows = [("point", "rank", "class")] + [
        (";".join(str(c) for c in p), r, gc.label(i))
        for i, (p, r) in enumerate(zip(gc.points, gc.ranks))
    ]
    results = {
        "regular_density": gc.regular_density,
        "grid": {f"x{i}": [str(v) for v in vals] for i, vals in axes.items()},
        "csv_rows": rows,
        "points": [
            {"point": [str(c) for c in p], "rank": r, "class": gc.label(i)}
            for i, (p, r) in enumerate(zip(gc.points, gc.ranks))
        ],
    }
    return _report("rank", seed, results, system=system.name), EXIT_OK


def _cmd_lie(args, seed):
    system = _load_system(args.system)
    p = parse_point(args.point, system.dim)
    filt = filtration(list(system.fields), args.depth, args.module_degree)
    results = {
        "point": list(p),
        "depth_cap": args.depth,
        "ranks_by_depth": [filt.rank_at(p, d) for d in range(1, args.depth + 1)],
        "stabilized_at": filt.stabilized_at,
        "certificate": filt.certificate,
        "words": [
            {"depth": d + 1, "word": str(w), "components": [str(c) for c in f.components]}
            for d, level in enumerate(filt.levels)
            for w, f in level
        ],
    }
    if filt.stabilized_at is None:
        results["note"] = "; ".join(filter(None, [
            f"no stabilization certificate at depth cap {args.depth}; ranks "
            "are lower bounds", filt.note]))
    if args.fixed_time_ideal:
        rep = fixed_time_ideal_rank(filt, p)
        results["fixed_time_ideal"] = {
            "ideal_rank": rep.ideal_rank,
            "lie_rank": rep.lie_rank,
            "codim": rep.codim,
        }
    return _report("lie", seed, results, system=system.name), EXIT_OK


def _cmd_member(args, seed):
    system = _load_system(args.system)
    target = parse_target(args.target, system.dim)
    gens = system.pick([n.strip() for n in args.gens.split(",")])
    cert = member_bounded(target, gens, args.degree)
    results = {
        "target": [str(c) for c in target],
        "generators": [g.name for g in gens],
        "degree": args.degree,
        "verdict": cert.verdict,
        "member": cert.member,
        "multipliers": [str(m) for m in cert.multipliers] if cert.member else None,
        "note": None if cert.member else (
            "refutation is degree-bounded: membership with higher-degree "
            "multipliers is not excluded"
        ),
    }
    return _report("member", seed, results, system=system.name), EXIT_OK


def _cmd_orbit(args, seed):
    system = _load_system(args.system)
    p = _flow_point(args.point, system.dim, "--point")
    sampler = WordSampler(seed=seed, max_len=args.max_len,
                          max_time=args.max_time, count=args.words)
    family = list(system.fields)
    if args.fixed_time is None:
        rep = orbit_dimension(family, p, sampler, args.depth)
        results = {
            "point": list(p),
            "dimension": rep.dimension,
            "certificate": rep.certificate,
            "lie_rank": rep.linf_rank,
            "certified_exact": rep.certificate != "sampled" or rep.dimension == system.dim,
            "words_used": rep.words_used,
            "words_skipped": rep.words_skipped,
            "vectors": [list(v) for v in rep.vectors],
            "csv_rows": [tuple(f"v{i}" for i in range(system.dim)), *map(tuple, rep.vectors)],
        }
    else:
        rep = fixed_time_dimension(family, p, args.fixed_time, sampler,
                                   depth_cap=args.depth)
        results = {
            "point": list(p),
            "net_time": rep.net_time,
            "reached": list(rep.reached),
            "dimension": rep.dimension,
            "orbit_dimension": rep.orbit_dimension_at_reached,
            "dimension_gap": rep.dimension_gap,
            "ideal_rank": rep.ideal_rank,
            "max_displacement": rep.max_displacement,
            "words_used": rep.words_used,
            "words_skipped": rep.words_skipped,
            "certificate": rep.certificate,
        }
    return _report("orbit", seed, results, system=system.name,
                   tolerances={"rank_tol": FLOW_REL_TOL}), EXIT_OK


def _cmd_frobenius(args, seed):
    system = _load_system(args.system)
    D = Distribution(system.fields)
    if args.grid:
        axes = parse_grid(args.grid, system.dim)
    else:
        vals = [Fraction(-1), Fraction(0), Fraction(1)]
        axes = {i + 1: vals for i in range(system.dim)}
    samples = grid_points(axes, system.dim)
    cp = (_flow_point(args.chart_point, system.dim, "--chart-point")
          if args.chart_point else None)
    sampler = WordSampler(seed=seed, count=300, max_len=8, max_time=1.0)
    v = frobenius_verdict(D, samples, args.module_degree, sampler)
    results = {
        "integrable": v.integrable,
        "clause": v.clause,
        "involutive_pointwise": v.involutive_pointwise,
        "involutive_witness": _jsonable(v.involutive_witness),
        "module_involutive": v.module_involutive,
        "module_degree": v.module_degree,
        "ranks": list(v.ranks),
        "witnesses": [list(map(str, w)) for w in v.witnesses],
        "invariant_slice_samples": [list(map(str, w)) for w in v.invariant_slice_samples],
    }
    if cp is not None:
        chart = flow_box_chart(D, cp, orbit_sampler=sampler)
        results["chart"] = {
            "base": [str(c) for c in chart.base],
            "rank": chart.chart_rank,
            "max_residual": chart.max_residual,
            "accepted": chart.accepted,
            "rejected_reason": chart.rejected_reason,
        }
    return _report("frobenius", seed, results, system=system.name,
                   tolerances={"chart_residual": FLOW_REL_TOL,
                               "svd_rel_tol": VALUE_REL_TOL}), EXIT_OK


def _cmd_examples(args, seed):
    if args.list:
        results = [
            {
                "name": p.name,
                "shows": p.title,
                "facts": [
                    {"id": f.fact_id, "tag": f.tag, "checks": f.description}
                    for f in p.facts
                ],
            }
            for p in PRESETS.values()
        ]
        return _report("examples", seed, results), EXIT_OK
    names = list(PRESETS) if args.run_all else [args.run]
    runs = []
    mismatches = 0
    for name in names:
        if name not in PRESETS:
            raise UsageError(
                f"unknown preset {name!r}; see vfkit examples --list"
            )
        run = run_preset(name, seed)
        mismatches += run.failed
        runs.append(
            {
                "preset": name,
                "passed": run.passed,
                "failed": run.failed,
                "facts": [
                    {
                        "id": fact.fact_id,
                        "tag": fact.tag,
                        "description": fact.description,
                        "ok": res.ok,
                        "expected": res.expected,
                        "measured": res.measured,
                    }
                    for fact, res in run.results
                ],
            }
        )
    status = "ok" if mismatches == 0 else "fact-mismatch"
    report = _report("examples", seed, {"runs": runs, "mismatches": mismatches},
                     status=status)
    return report, EXIT_OK if mismatches == 0 else EXIT_FACTS


if __name__ == "__main__":
    sys.exit(main())
