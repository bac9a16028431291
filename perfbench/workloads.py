"""The benchmark's three workloads, built from a seed.

Each workload is a list of jobs.  A job is one call into vfkit; it returns
a canonical answer and, for each analysis it performed (one per job, except
corpus jobs, whose analyses are the preset facts), the label, start and
latency.  Given a ``speed.Speedometer``, latencies leave out the time its
reference chunks took.  ``check``
maps an answer to the problems found, per analysis; an empty list means
the answer is right.  Expectations come from ``oracle`` (hand-derived or
recomputed without vfkit) wherever one exists, and from ``expected.json``
(recorded from vfkit for seed-independent answers) otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
EXPECTED = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}

CUBIC_SYSTEM = """\
system ode-cubic dim 2
field X1 = (1, 0)
field X2 = (0, x1^2*x2+x2^3)
"""

# The one designed red fact of the corpus: it must keep failing.
EXPECTED_RED = {"hyperbola-fixed-time/axis-singleton"}

# Relative bound for floats that ROADMAP 3a may move in the last bits.
FLOAT_RTOL = 1e-8

# Passes of fresh inputs made at set-up; a run that needs more reuses them
# in order (and then checks that each answer repeats).
PASS_INPUTS = {"full": 32, "tiny": 3}

# Seconds one pass takes on a quiet 2-core Xeon at the parent commit.  A run
# makes max(1, round(seconds / nominal)) passes, so every run of a workload
# does the same amount of work whatever the machine's speed at the moment:
# the latency tail is then always the same order statistic.
NOMINAL_PASS_S = {
    "full": {"corpus": 22.0, "orbit-ode": 4.0, "symbolic-certify": 4.0},
    "tiny": {"corpus": 0.2, "orbit-ode": 0.2, "symbolic-certify": 0.2},
}


def _q(k, den=16):
    return Fraction(k, den)


def _fmt_point(p):
    return ",".join(str(c) for c in p)


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- jobs ----------------------------------------------------------------------------


@dataclasses.dataclass
class Job:
    """One call into vfkit with one checked answer."""

    name: str
    call: object  # () -> answer
    check: object  # answer -> list of problems

    def execute(self, tracer=None, speed=None):
        if tracer is not None:
            tracer.analysis = self.name
        clock = time.perf_counter if speed is None else speed.clock
        start, work = time.perf_counter(), clock()
        answer = self.call()
        return answer, [(self.name, start, clock() - work)]

    def problems(self, answer):
        return {self.name: self.check(answer)}


@dataclasses.dataclass
class PresetJob:
    """run_preset on one preset; each fact is an analysis of its own.

    Fact latencies are taken by swapping a copy of the preset, whose fact
    checks are timed, into the preset registry for the duration of the call.
    """

    name: str
    seed: int
    fact_ids: tuple

    def execute(self, tracer=None, speed=None):
        from vfkit import presets

        original = presets.PRESETS[self.name]
        latencies = []
        clock = time.perf_counter if speed is None else speed.clock

        def timed(fact):
            label = f"{self.name}/{fact.fact_id}"

            def check(ctx):
                if tracer is not None:
                    tracer.analysis = label
                start, work = time.perf_counter(), clock()
                try:
                    return fact.check(ctx)
                finally:
                    latencies.append((label, start, clock() - work))

            return dataclasses.replace(fact, check=check)

        presets.PRESETS[self.name] = dataclasses.replace(
            original, facts=tuple(timed(f) for f in original.facts))
        if tracer is not None:
            tracer.analysis = self.name
        try:
            run = presets.run_preset(self.name, self.seed)
        finally:
            presets.PRESETS[self.name] = original
        answer = tuple(
            (fact.fact_id, res.ok, res.expected, res.measured) for fact, res in run.results
        )
        return answer, latencies

    def problems(self, answer):
        got = {fid: ok for fid, ok, _, _ in answer}
        out = {}
        for fid in self.fact_ids:
            label = f"{self.name}/{fid}"
            if fid not in got:
                out[label] = ["fact missing from the run"]
            elif got[fid] != (label not in EXPECTED_RED):
                out[label] = [f"fact ok={got[fid]}, expected ok={label not in EXPECTED_RED}"]
            else:
                out[label] = []
        for fid in got:
            if fid not in self.fact_ids:
                out[f"{self.name}/{fid}"] = ["fact not in the recorded corpus"]
        return out


# -- corpus ----------------------------------------------------------------------------


def corpus(seed, size):
    """Every preset in the order of `vfkit examples --run-all`; a recorded
    preset that no longer exists fails when run."""
    from vfkit import presets

    facts = EXPECTED["corpus_facts"]
    names = list(presets.PRESETS) + [n for n in facts if n not in presets.PRESETS]
    if size == "tiny":
        names = ["linear-shear", "quadratic-shear", "vanishing-pair", "flat-generator-module"]
    return [[PresetJob(name, seed, tuple(facts.get(name, ()))) for name in names]]


# -- orbit-ode ---------------------------------------------------------------------------

# One pass: (kind, family, stratum centre in sixteenths, words per sample).
# Each pass draws a new jitter around every centre and new words.  Near
# (1, 1) many words blow up in finite time (x2' >= x2^3) and the integrator
# gives up: the latency tail.  The other cubic centres keep |x2| <= 7/16,
# where blow-up is rare, so the tail's share of a pass stays small and the
# pass time varies less between input draws.  The analyses fall into three
# cost groups of three (leaf, cubic orbit, cubic fixed-time and tail), so
# the median latency sits inside the middle group rather than on the edge
# between two groups.
ORBIT_ODE_PASS = {
    "full": [
        ("orbit", "isolated-leaf", (8, 3, 2), 16),
        ("orbit", "isolated-leaf", (0, 5, 3), 10),  # on the invariant slice x1 = 0
        ("fixed-time", "isolated-leaf", (-5, 6, 11), 8),
        ("orbit", "ode-cubic", (5, 6), 16),
        ("orbit", "ode-cubic", (8, 3), 16),
        ("orbit", "ode-cubic", (-6, 6), 16),
        ("orbit", "ode-cubic", (16, 16), 6),
        ("fixed-time", "ode-cubic", (5, 6), 8),
        ("fixed-time", "ode-cubic", (-6, 6), 8),
    ],
    "tiny": [
        ("orbit", "ode-cubic", (5, 6), 3),
        ("orbit", "isolated-leaf", (8, 3, 2), 3),
    ],
}
FIXED_T = 0.3


def _jitter(rng, centre, pinned=()):
    """Centre plus a seeded offset of -1, 0 or +1 sixteenths per coordinate
    (coordinates in ``pinned`` stay on the centre)."""
    return tuple(
        _q(c if i in pinned else c + rng.randint(-1, 1)) for i, c in enumerate(centre)
    )


def _orbit_job(label, family, point, sampler, expected):
    from vfkit import orbits

    def call():
        rep = orbits.orbit_dimension(family, point, sampler)
        return (rep.dimension, rep.linf_rank, rep.words_used, rep.words_skipped)

    def check(ans):
        dim, lie, _, _ = ans
        out = []
        if dim != expected:
            out.append(f"orbit dimension {dim}, Nagano expects {expected}")
        if lie != expected:
            out.append(f"bracket rank {lie}, expected {expected}")
        return out

    return Job(f"{label}@{_fmt_point(point)}", call, check)


def _fixed_job(label, family, point, sampler, reached_exact, orbit_rank, ideal_rank):
    from vfkit import orbits

    def call():
        rep = orbits.fixed_time_dimension(family, point, FIXED_T, sampler)
        return (rep.dimension, rep.orbit_dimension_at_reached, rep.ideal_rank,
                tuple(float(c) for c in rep.reached), rep.words_used, rep.words_skipped)

    def check(ans):
        dim, orbit_dim, ideal, reached, _, _ = ans
        out = []
        if dim != ideal_rank:
            out.append(f"fixed-time dimension {dim}, ideal rank by hand {ideal_rank}")
        if ideal != ideal_rank:
            out.append(f"ideal rank {ideal}, expected {ideal_rank}")
        if orbit_dim != orbit_rank:
            out.append(f"orbit dimension at reached point {orbit_dim}, expected {orbit_rank}")
        for got, want in zip(reached, reached_exact):
            if not abs(got - want) <= FLOAT_RTOL * (1.0 + abs(want)):
                out.append(f"reached point {reached}, closed form {reached_exact}")
                break
        return out

    return Job(f"{label}@{_fmt_point(point)}", call, check)


def orbit_ode(seed, size):
    from vfkit import orbits, systems

    families = {
        "ode-cubic": list(systems.parse_system(CUBIC_SYSTEM).fields),
        "isolated-leaf": list(systems.parse_system(_preset_text("isolated-leaf")).fields),
    }
    rank = {"ode-cubic": (oracle.cubic_orbit_rank, oracle.cubic_ideal_rank),
            "isolated-leaf": (oracle.leaf_orbit_rank, oracle.leaf_ideal_rank)}
    rng = random.Random(seed)

    def job(kind, name, centre, words):
        p = _jitter(rng, centre, pinned=(0,) if centre[0] == 0 else ())
        sampler = orbits.WordSampler(seed=rng.randrange(2**32), count=words,
                                     max_len=6, max_time=0.5)
        orbit_rank, ideal_rank = rank[name]
        label = f"{kind}/{name}"
        if kind == "orbit":
            return _orbit_job(label, families[name], p, sampler, orbit_rank(p))
        x = [float(c) for c in p]
        if name == "ode-cubic":
            # X1 = (1, 0) is defined everywhere, so the net-time seed word
            # is [(X1, T)] and the reached point is p + (T, 0).
            reached = (x[0] + FIXED_T, x[1])
        else:
            reached = (x[0] * math.exp(x[2] * FIXED_T), x[1] + FIXED_T, x[2])
        # x2 (cubic) and x1 (leaf) keep their sign along the X1 flow, so the
        # ranks at the reached point are those at p
        return _fixed_job(label, families[name], p, sampler, reached, orbit_rank(p),
                          ideal_rank(p))

    return [[job(*spec) for spec in ORBIT_ODE_PASS[size]] for _ in range(PASS_INPUTS[size])]


# -- symbolic-certify --------------------------------------------------------------------

R2 = "(x1^2+x2^2)"
Q4 = "(x1^4+x2^4)"
MIXED_BRACKET = f"(-2*x2*{Q4}, 4*x1^3*{R2})"
UMBRELLA = "x3*(x1^2+x2^2) - x2^3"


def _preset_text(name):
    from vfkit import presets

    return presets.PRESETS[name].system_text


def _cli(argv):
    from vfkit import cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return (code, buf.getvalue())

    return call


def _results(ans, problems):
    code, text = ans
    if code != 0:
        problems.append(f"exit code {code}")
        return {}
    return json.loads(text)["results"]


def _random_poly(rng, n, degree):
    """Text of a polynomial with small integer coefficients, never zero."""
    terms = ["1"]
    for total in range(1, degree + 1):
        for _ in range(2):
            mono = "*".join(f"x{rng.randint(1, n)}" for _ in range(total))
            terms.append(f"{rng.choice([-3, -2, -1, 1, 2, 3])}*{mono}")
    return " + ".join(terms)


def _lie_job(path, system, point, depth, degree, ranks, certificate):
    argv = ["lie", "--system", path, f"--point={_fmt_point(point)}", "--depth", str(depth),
            "--format", "json"]
    key = lie_key(system, depth, degree)
    if degree is not None:
        argv += ["--module-degree", str(degree)]
    recorded = EXPECTED["lie_words"][key]
    if certificate is None:
        certificate = (recorded["stabilized_at"], recorded["certificate"])

    def check(ans):
        out = []
        res = _results(ans, out)
        if not res:
            return out
        if res["ranks_by_depth"] != ranks:
            out.append(f"ranks {res['ranks_by_depth']}, by hand {ranks}")
        if (res["stabilized_at"], res["certificate"]) != tuple(certificate):
            out.append(f"certificate {res['stabilized_at']}/{res['certificate']}, "
                       f"expected {certificate[0]}/{certificate[1]}")
        if _sha(res["words"]) != recorded["words_sha256"]:
            out.append("bracket words differ from the recorded list")
        if ("note" in res) != (res["stabilized_at"] is None):
            out.append("lower-bound note does not match the certificate")
        return out

    return Job(f"{key}@{_fmt_point(point)}", _cli(argv), check)


def _member_job(path, target, degree, member, multiplier_check=None, label=""):
    argv = ["member", "--system", path, "--target", target, "--gens", "X1,X2",
            "--degree", str(degree), "--format", "json"]

    def check(ans):
        out = []
        res = _results(ans, out)
        if not res:
            return out
        if res["member"] != member:
            out.append(f"member={res['member']}, expected {member}")
        elif member:
            if not multiplier_check(res["multipliers"]):
                out.append("multipliers do not reproduce the target")
        elif res["verdict"] != f"not-member-up-to-degree({degree})":
            out.append(f"verdict {res['verdict']!r}")
        return out

    return Job(f"member/mixed-degree-pair/deg{degree}{label}", _cli(argv), check)


def _module_identity(gens, target):
    """Check sum_i m_i * g_i == target componentwise, exactly, without vfkit."""

    def verify(mults):
        for comp, want in enumerate(target):
            def lhs(p, comp=comp):
                return sum(oracle.poly_eval(m, p) * oracle.poly_eval(g[comp], p)
                           for m, g in zip(mults, gens))

            if not oracle.identity_holds(lhs, lambda p: oracle.poly_eval(want, p), 2, comp):
                return False
        return True

    return verify


def _ideal_job(f_expr, target_text, degree, multiplier):
    from vfkit import expr, membership

    target = expr.parse(target_text, 3)

    def call():
        cert = membership.ideal_member_bounded(target, [f_expr], degree)
        mults = [str(m) for m in cert.multipliers] if cert.member else None
        return (cert.member, cert.verdict, mults)

    def check(ans):
        member, verdict, mults = ans
        if multiplier is None:
            if member or verdict != f"not-member-up-to-degree({degree})":
                return [f"verdict {verdict!r}; x1 has degree 1 < 3 = deg f, so no multiple of f"]
            return []
        if not member:
            return [f"verdict {verdict!r} for a multiple of f"]
        same = oracle.identity_holds(lambda p: oracle.poly_eval(mults[0], p),
                                     lambda p: oracle.poly_eval(multiplier, p), 3, degree)
        return [] if same else [f"multiplier {mults[0]!r}, expected {multiplier!r}"]

    kind = "x1" if multiplier is None else "multiple"
    return Job(f"ideal/umbrella/{kind}/deg{degree}", call, check)


def _rank_point_job(path, system, point, minor_text):
    argv = ["rank", "--system", path, f"--point={_fmt_point(point)}", "--format", "json"]

    def check(ans):
        out = []
        res = _results(ans, out)
        if not res:
            return out
        want = 0 if all(c == 0 for c in point) else 2
        if (res["rank"], res["method"], res["generic_rank"]) != (want, "exact-rational", 2):
            out.append(f"rank {res['rank']} ({res['method']}), generic "
                       f"{res['generic_rank']}; expected {want} (exact-rational), generic 2")
        minors = res["minors"]
        if len(minors) != 1 or not oracle.identity_holds(
                lambda p: oracle.poly_eval(minors[0], p),
                lambda p: oracle.poly_eval(minor_text, p), 2, 0):
            out.append(f"minors {minors}, expected the single minor {minor_text}")
        return out

    return Job(f"rank-point/{system}@{_fmt_point(point)}", _cli(argv), check)


def _rank_grid_job(path, system, lo, steps, rank_of):
    step = Fraction(1, 8)
    spec = ",".join(f"x{i + 1}={lo[i]}:{lo[i] + steps * step}:1/8" for i in range(2))
    argv = ["rank", "--system", path, "--grid", spec, "--format", "json"]

    def check(ans):
        out = []
        res = _results(ans, out)
        if not res:
            return out
        ranks = {}
        for i in range(steps + 1):
            for j in range(steps + 1):
                ranks[(i, j)] = rank_of((lo[0] + i * step, lo[1] + j * step))
        flags = oracle.grid_classes(ranks, (steps + 1, steps + 1))
        want = [
            {"point": [str(lo[0] + i * step), str(lo[1] + j * step)], "rank": ranks[(i, j)],
             "class": "regular" if flag else "singular"}
            for (i, j), flag in zip(sorted(ranks), flags)
        ]
        if res["points"] != want:
            out.append("grid ranks or classes differ from the hand-derived ones")
        if res["regular_density"] != sum(flags) / len(flags):
            out.append(f"regular density {res['regular_density']}")
        return out

    return Job(f"rank-grid/{system}@{spec}", _cli(argv), check)


def _write_systems(names, extra=()):
    out = HERE / "out" / "systems"
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = out / f"{name}.sys"
        path.write_text(_preset_text(name))
        paths[name] = str(path)
    for name, text in extra:
        path = out / f"{name}.sys"
        path.write_text(text)
        paths[name] = str(path)
    return paths


# (system, depth cap, module degree); the mixed-degree-pair cases stay below
# the 85 s that `vfkit lie` takes there at its defaults (depth 6, degree 6).
LIE_CASES = {
    "full": [("mixed-degree-pair", 5, 4), ("mixed-degree-pair", 5, 5),
             ("vanishing-pair", 5, 4), ("vanishing-pair", 6, 6), ("quadratic-shear", 6, None)],
    "tiny": [("vanishing-pair", 3, 2), ("quadratic-shear", 4, None)],
}
FLAT_LIE_CASES = {
    "full": [("one-sided-flat", 8, None), ("two-sided-flat", 8, None)],
    "tiny": [("one-sided-flat", 3, None), ("two-sided-flat", 3, None)],
}


def lie_key(system, depth, degree):
    return f"lie/{system}/d{depth}" + ("" if degree is None else f"/m{degree}")


def symbolic_certify(seed, size):
    from vfkit import expr

    rng = random.Random(seed)
    paths = _write_systems(["mixed-degree-pair", "vanishing-pair", "quadratic-shear",
                            "one-sided-flat", "two-sided-flat"])
    nonzero = [k for k in range(-8, 9) if k != 0]

    def point():
        return (_q(rng.choice(nonzero), 8), _q(rng.choice(nonzero), 8))

    def flat_point():
        # |x1| >= 1/2 or x1 = 0: below 1/2, e^(-1/x1^2) < 1e-9 of the other
        # entries and the float rank threshold (1e-9 relative) reads rank 1.
        return (_q(rng.choice([-8, -6, -4, 0, 4, 6, 8]), 8), _q(rng.choice(nonzero), 8))

    def grid_corner():
        return tuple(_q(rng.randint(-8, 0), 8) for _ in range(2))

    full = size == "full"
    umbrella = expr.parse(UMBRELLA, 3)

    def one_pass():
        jobs = []
        for system, depth, degree in LIE_CASES[size]:
            p = point()
            if system == "quadratic-shear":
                # [X1,X2] = (0, 2 x1), [X1,[X1,X2]] = (0, 2); deeper words vanish
                r1 = 2 if p[0] != 0 else 1
                ranks = [r1, r1] + [2] * (depth - 2)
                cert = (3, "symbolic-closure")
            else:
                ranks = [2] * depth
                # vanishing-pair: [X1,X2] = -2 x2 X1 + 2 x1 X2 (published fact)
                cert = (1, f"module-degree-{degree}") if system == "vanishing-pair" else None
            jobs.append(_lie_job(paths[system], system, p, depth, degree, ranks, cert))
        for system, depth, _ in FLAT_LIE_CASES[size]:
            p = flat_point()
            # one-sided: bumpp(x1) and its derivatives vanish for x1 <= 0;
            # two-sided: bump(x1) and its derivatives vanish only at x1 = 0
            r = 2 if (p[0] > 0 if system == "one-sided-flat" else p[0] != 0) else 1
            jobs.append(_lie_job(paths[system], system, p, depth, None, [r] * depth, None))

        # The bracket (-2 x2 q4, 4 x1^3 r2) is in <X1, X2> only if q4 divides
        # 4 x1^3 r2, which it never does (q4 = x1^4 + x2^4 is irreducible over Q
        # and coprime to x1^3 r2): a non-member at every degree.
        for degree in (range(2, 11) if full else (1, 2)):
            jobs.append(_member_job(paths["mixed-degree-pair"], MIXED_BRACKET, degree, False))
        m1, m2 = _random_poly(rng, 2, 2), _random_poly(rng, 2, 2)
        gens = [(R2, "0"), ("0", Q4)]
        target = (f"({m1})*{R2}", f"({m2})*{Q4}")
        jobs.append(_member_job(paths["mixed-degree-pair"], f"({target[0]}, {target[1]})", 3,
                                True, _module_identity(gens, target), "/seeded-member"))

        for degree in ((4, 6, 8, 10) if full else (2,)):
            jobs.append(_ideal_job(umbrella, "x1", degree, None))
        m = _random_poly(rng, 3, 2)
        jobs.append(_ideal_job(umbrella, f"({m})*({UMBRELLA})", 8 if full else 2, m))

        if full:
            jobs.append(_rank_point_job(paths["vanishing-pair"], "vanishing-pair", point(),
                                        f"{R2}^2"))
            jobs.append(_rank_point_job(paths["mixed-degree-pair"], "mixed-degree-pair", point(),
                                        f"{R2}*{Q4}"))
        steps = 8 if full else 2
        for system in ("vanishing-pair", "mixed-degree-pair"):
            jobs.append(_rank_grid_job(paths[system], system, grid_corner(), steps,
                                       lambda p: 0 if p == (0, 0) else 2))
        jobs.append(_rank_grid_job(paths["quadratic-shear"], "quadratic-shear", grid_corner(),
                                   steps, lambda p: 1 if p[0] == 0 else 2))
        return jobs

    return [one_pass() for _ in range(PASS_INPUTS[size])]


WORKLOADS = {
    "corpus": corpus,
    "orbit-ode": orbit_ode,
    "symbolic-certify": symbolic_certify,
}
