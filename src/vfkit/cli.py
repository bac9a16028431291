"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 numeric failure,
4 expected-fact mismatch (``examples --run``).  JSON reports are emitted
with sorted keys, so identical invocations with identical seeds are
byte-identical.  Each subcommand is one ``COMMANDS`` entry, and a call
builds only its parser.  A call loads numpy only where it needs floats: the
flow layer (``vfkit.fields``) when it walks a flow (a sampled ``orbit``, a
fixed-time one from a point that a flow moves, a flow-box chart or sampled
orbit of ``frobenius``, a preset run of ``examples``), ``linalg``'s float
ranks when a value is irrational.  An exact ``orbit``, an exact
``frobenius`` verdict and ``examples --list`` load neither.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .distributions import (
    Distribution,
    classify_grid,
    grid_points,
    rank_at,
    singular_locus_minors,
)
from .expr import EvalError, ExprError
from .liealg import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_MODULE_DEGREE,
    DEPTH_CAP_LIMIT,
    LieAlgebraError,
    certify,
    word_vectors,
    zero_time_ladder,
)
from .linalg import FLOW_REL_TOL, VALUE_REL_TOL
from .membership import DEGREE_CAP, MembershipError, member_bounded
from .systems import (
    SystemParseError,
    UsageError,
    parse_grid,
    parse_point,
    parse_system,
    parse_target,
)
from .vectorfield import FlowError, field_values, lie_bracket, point_text

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
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


# JSON text of the leaves of the common exact types, as json writes them
_JSON_LEAVES = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: lambda x: ("NaN" if x != x else "Infinity" if x == math.inf
                      else "-Infinity" if x == -math.inf else float.__repr__(x)),
    Fraction: lambda q: (str(q.numerator) if q.denominator == 1
                         else encode_basestring_ascii(str(q))),
}


def _write_json(x, out, indent="\n"):
    """Append ``json.dumps(_jsonable(x), sort_keys=True, indent=2)``'s text
    to ``out`` in one pass (json's indenting encoder is pure Python, on a
    ``_jsonable`` copy)."""
    leaf = _JSON_LEAVES.get(type(x))
    if leaf is not None:
        out.append(leaf(x))
        return
    inner = indent + "  "
    if isinstance(x, dict):
        items = {str(k): v for k, v in x.items()}
        sep = "{" + inner
        for k in sorted(items):
            out += (sep, encode_basestring_ascii(k), ": ")
            _write_json(items[k], out, inner)
            sep = "," + inner
        out.append(indent + "}" if items else "{}")
    elif isinstance(x, (list, tuple)):
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write_json(v, out, inner)
            sep = "," + inner
        out.append(indent + "]" if x else "[]")
    else:  # a subclass of a leaf type
        y = _jsonable(x)
        kind = next((k for k in (str, float, int) if isinstance(y, k)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        out.append(_JSON_LEAVES[kind](y))


def _emit(report, fmt, stream=None, csv_rows=None):
    """The report in its format; ``--format csv`` writes the command's CSV
    rows, given beside the report, and JSON where it has none."""
    stream = stream or sys.stdout
    if fmt == "text":
        _print_text(report, stream)
    elif fmt == "csv" and csv_rows is not None:
        stream.writelines(",".join(map(str, row)) + "\n" for row in csv_rows)
    else:
        out = []
        _write_json(report, out)
        stream.write("".join(out) + "\n")


def _print_text(report, stream):
    stream.write(f"# {report['command']} (seed {report['seed']})\n")
    if report.get("error"):
        stream.write(f"error: {report['error']}\n")
        return
    results = report["results"]
    if isinstance(results, dict):
        for key, value in results.items():
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


def _time(text):
    """A flow time given as a decimal or a rational such as 1/2, in ASCII
    (``Fraction`` also reads other Unicode digits)."""
    try:
        if text.isascii():
            return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"invalid time {text!r}")


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
    """Usage errors for options outside the ranges the library accepts,
    raised before any system is read."""
    for name, lo, hi in (("depth", 1, DEPTH_CAP_LIMIT), ("degree", 0, DEGREE_CAP),
                         ("module_degree", 0, DEGREE_CAP), ("words", 1, WORDS_CAP),
                         ("max_len", 1, MAX_LEN_CAP)):
        value = getattr(args, name, None)
        if value is not None and not lo <= value <= hi:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must lie in [{lo}, {hi}], got {value}")
    max_time = getattr(args, "max_time", 0.0)
    if max_time < 0:
        raise UsageError(f"--max-time must not be negative, got {max_time}")
    if not math.isfinite(2 * max_time):  # the sampler draws times from [-t, t]
        raise UsageError(f"--max-time {max_time} gives a time range [-t, t] wider "
                         "than the float range")


def _add_common(p):
    p.add_argument("--system", required=True, help="system file path")
    p.add_argument("--format", default="text", choices=["json", "csv", "text"])
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="vfkit",
        description="symbolic-numeric analysis of families of vector fields",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (help_line, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return ap


def _parse(argv):
    """The subcommand and its arguments: from that subcommand's parser alone,
    or from the full one for no argument, -h or an unknown name."""
    if argv and argv[0] in COMMANDS:
        ap = argparse.ArgumentParser(prog=f"vfkit {argv[0]}")
        COMMANDS[argv[0]][1](ap)
        return argv[0], ap.parse_args(argv[1:])
    args = build_parser().parse_args(argv)
    return args.cmd, args


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
    try:
        cmd, args = _parse(_join_signed_values(argv))
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    csv_rows = ()
    try:
        _check_ranges(args)
        report, code, *csv_rows = COMMANDS[cmd][2](args, args.seed)
    except UsageError as err:
        report = _report(cmd, args.seed, {}, status="usage-error", error=str(err))
        code = EXIT_USAGE
    except (EvalError, FlowError, LieAlgebraError, MembershipError, ValueError) as err:
        # before ExprError: a pole met while evaluating is numeric, not a parse error
        report = _report(cmd, args.seed, {}, status="numeric-failure", error=str(err))
        code = EXIT_NUMERIC
    except (SystemParseError, ExprError) as err:
        report = _report(cmd, args.seed, {}, status="parse-error", error=str(err))
        code = EXIT_PARSE
    report["argv"] = argv
    _emit(report, args.format, sys.stdout, *csv_rows)
    return code


def _args_bracket(p):
    _add_common(p)
    p.add_argument("--fields", required=True, help="comma-separated pair, e.g. X1,X2")


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


def _args_rank(p):
    _add_common(p)
    p.add_argument("--point", help="comma-separated rational coordinates")
    p.add_argument("--grid", help='grid spec like "x1=-1:1:1/4,x2=-1:1:1/4"')


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
    points = [
        {"point": [str(c) for c in p], "rank": r, "class": gc.label(i)}
        for i, (p, r) in enumerate(zip(gc.points, gc.ranks))
    ]
    results = {
        "regular_density": gc.regular_density,
        "grid": {f"x{i}": [str(v) for v in vals] for i, vals in axes.items()},
        "points": points,
    }
    rows = [("point", "rank", "class")] + [
        (";".join(pt["point"]), pt["rank"], pt["class"]) for pt in points]
    return _report("rank", seed, results, system=system.name), EXIT_OK, rows


def _args_lie(p):
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH_CAP)
    p.add_argument("--module-degree", type=int, default=DEFAULT_MODULE_DEGREE)
    p.add_argument("--fixed-time-ideal", action="store_true",
                   help="also report the fixed-time ideal rank and codimension")


def _cmd_lie(args, seed):
    system = _load_system(args.system)
    p = parse_point(args.point, system.dim)
    values = field_values(system.fields, [p])
    walk = list(word_vectors(system.fields, values, [p], args.depth))
    filt = certify(walk[-1][0], args.module_degree)
    results = {
        "point": list(p),
        "depth_cap": args.depth,
        "ranks_by_depth": [rank for _, _, (rank,) in walk],
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
        # the zero-time ideal spanned by the time-extended family's words at
        # (p, 0), walked to the cap or to the first depth where its rank is
        # the Lie rank: L0(p) lies in Lie(F)(p), so no deeper word raises it
        if all(v is None for v in values[0]):
            raise LieAlgebraError(f"no generator defined at {point_text(p)}")
        lie_rank = results["ranks_by_depth"][-1]
        for _, _, (ideal_rank,) in zero_time_ladder(system.fields, values, [p], args.depth):
            if ideal_rank >= lie_rank:
                break
        codim = lie_rank - ideal_rank
        if codim not in (0, 1):
            raise LieAlgebraError(
                f"codimension of the fixed-time ideal must be 0 or 1, got {codim}")
        results["fixed_time_ideal"] = {
            "ideal_rank": ideal_rank,
            "lie_rank": lie_rank,
            "codim": codim,
        }
    return _report("lie", seed, results, system=system.name), EXIT_OK


def _args_member(p):
    _add_common(p)
    p.add_argument("--target", required=True, help='target field "(e1,...,en)"')
    p.add_argument("--gens", required=True, help="comma-separated generator names")
    p.add_argument("--degree", type=int, required=True)


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


def _args_orbit(p):
    from .orbits import WordSampler
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--words", type=int, default=WordSampler.count)
    p.add_argument("--max-len", type=int, default=WordSampler.max_len)
    p.add_argument("--max-time", type=_time, default=WordSampler.max_time)
    p.add_argument("--fixed-time", type=_time, default=None)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH_CAP)


def _cmd_orbit(args, seed):
    from .orbits import WordSampler, fixed_time_dimension, orbit_dimension
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
        }
        rows = [[f"v{i}" for i in range(system.dim)], *rep.vectors]
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
            "words_used": rep.words_used,
            "words_skipped": rep.words_skipped,
            "certificate": rep.certificate,
        }
        rows = None  # JSON for --format csv
    return _report("orbit", seed, results, system=system.name,
                   tolerances={"rank_tol": FLOW_REL_TOL}), EXIT_OK, rows


def _args_frobenius(p):
    from .frobenius import DEFAULT_INVOLUTIVITY_DEGREE
    _add_common(p)
    p.add_argument("--grid", default=None)
    p.add_argument("--module-degree", type=int, default=DEFAULT_INVOLUTIVITY_DEGREE)
    p.add_argument("--chart-point", default=None,
                   help="also attempt a flow-box chart at this point")


def _cmd_frobenius(args, seed):
    from .frobenius import flow_box_chart, frobenius_verdict
    from .orbits import WordSampler
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
        "involutive_witness": v.involutive_witness,
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


def _args_examples(p):
    p.add_argument("--format", default="text", choices=["json", "csv", "text"])
    p.add_argument("--seed", type=int, default=0)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--list", action="store_true")
    g.add_argument("--run", metavar="NAME")
    g.add_argument("--run-all", action="store_true")


def _cmd_examples(args, seed):
    from .presets import PRESETS, run_preset
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


# name -> (help line, function adding the arguments, handler); a handler
# returns (report, exit code), and a command with a CSV form its rows third
COMMANDS = {
    "bracket": ("Lie bracket of two named fields", _args_bracket, _cmd_bracket),
    "rank": ("fibre rank at a point or over a grid", _args_rank, _cmd_rank),
    "lie": ("bracket filtration ranks at a point", _args_lie, _cmd_lie),
    "member": ("degree-bounded module membership", _args_member, _cmd_member),
    "orbit": ("orbit (or fixed-time) dimension, exact or sampled", _args_orbit, _cmd_orbit),
    "frobenius": ("integrability verdict", _args_frobenius, _cmd_frobenius),
    "examples": ("list or run the preset corpus", _args_examples, _cmd_examples),
}


if __name__ == "__main__":
    sys.exit(main())
