"""Outside-in tracing of vfkit's layers.

The tracer rebinds each layer's public function at every ``vfkit`` module
that holds it (plus ``Expr.eval_float``/``eval``/``diff`` and the scipy entry
points ``solve_ivp`` and ``expm`` as bound in ``vfkit.fields``) and restores
the originals on exit.  No file of vfkit is touched.

Each call records a span: name, start, end, parent span and analysis id.
High-frequency expression calls are folded into their parent span instead
of stored one by one (about 3.3M ``eval_float`` calls per corpus pass); their
counts and self times are still exact.  A span's self time is its duration
minus the time its child calls cover.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute, keep one span per call)
LAYERS = (
    ("expr.eval_float", "vfkit.expr", "Expr.eval_float", False),
    ("expr.eval", "vfkit.expr", "Expr.eval", False),
    ("expr.diff", "vfkit.expr", "Expr.diff", False),
    ("fields.pushforward_along_word", "vfkit.fields", "pushforward_along_word", True),
    ("fields.apply_word", "vfkit.fields", "apply_word", True),
    ("fields.expm", "vfkit.fields", "expm", True),
    ("fields.solve_ivp", "vfkit.fields", "solve_ivp", True),
    ("fields.lie_bracket", "vfkit.fields", "lie_bracket", True),
    ("orbits.orbit_dimension", "vfkit.orbits", "orbit_dimension", True),
    ("orbits.fixed_time_dimension", "vfkit.orbits", "fixed_time_dimension", True),
    ("liealg.filtration", "vfkit.liealg", "filtration", True),
    ("membership.member_bounded", "vfkit.membership", "member_bounded", True),
    ("linalg.exact_solve", "vfkit.linalg", "exact_solve", True),
    ("linalg.svd_rank", "vfkit.linalg", "svd_rank", True),
    ("distributions.rank_at", "vfkit.distributions", "rank_at", True),
    ("distributions.singular_locus_minors", "vfkit.distributions",
     "singular_locus_minors", True),
    ("frobenius.frobenius_verdict", "vfkit.frobenius", "frobenius_verdict", True),
    ("frobenius.flow_box_chart", "vfkit.frobenius", "flow_box_chart", True),
    ("presets.run_preset", "vfkit.presets", "run_preset", True),
    ("cli.main", "vfkit.cli", "main", True),
    ("systems.parse_system", "vfkit.systems", "parse_system", True),
)

# Scipy entry points are rebound only where vfkit.fields bound them.
_ONLY_AT_HOME = {"fields.expm", "fields.solve_ivp"}

# Counts that must repeat exactly between two traced passes at one seed.
EXACT_COUNTS = (
    "fields.solve_ivp.nfev",
    "fields.expm.calls",
    "fields.pushforward_along_word.calls",
    "linalg.exact_solve.cells",
    "expr.eval_float.calls",
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.failed = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)  # outermost calls of each layer only
        self._active = Counter()  # calls of each layer now on the stack
        self.extra = Counter()  # nfev, cells, words used, ...
        self.spans = []  # (span id, name, parent id, analysis, start, end)
        self.analysis = None
        self._stack = []  # frames: [child seconds, span id]
        self._next_id = 1
        self._saved = []

    # -- installation ----------------------------------------------------------

    def install(self):
        """Rebind every layer; ``uninstall`` puts the originals back."""
        for name, module_name, attr, keep in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, keep))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, keep)
            homes = [module] if name in _ONLY_AT_HOME else [
                m for key, m in sorted(sys.modules.items())
                if m is not None and (key == "vfkit" or key.startswith("vfkit."))
            ]
            for home in homes:
                for alias, value in list(vars(home).items()):
                    if value is original:
                        self._saved.append((home, alias, original))
                        setattr(home, alias, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name, fn, keep):
        perf = time.perf_counter
        stack = self._stack
        calls, failed, self_s = self.calls, self.failed, self.self_s
        inclusive_s, active = self.inclusive_s, self._active
        spans = self.spans
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            if before is not None:
                args = before(tracer, args)
            stack.append(frame)
            active[name] += 1
            ok = False
            start = perf()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                duration = end - start
                if not active[name]:
                    inclusive_s[name] += duration
                if stack:
                    stack[-1][0] += duration
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if not ok:
                    failed[name] += 1
                if keep:
                    spans.append((span_id, name, parent, tracer.analysis, start, end))
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    def write_spans(self, path):
        """Write the spans as gzip CSV (times relative to the first span)."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,analysis,start_s,end_s\n")
            for span_id, name, parent, analysis, start, end in self.spans:
                fh.write(f"{span_id},{name},{parent},{analysis},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")

    # -- metrics -----------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer values named as in BENCHMARK.json (without units)."""
        m = {}
        for name, *_ in LAYERS:
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.self_s"] = self.self_s[name]
        for name in ("fields.pushforward_along_word", "fields.apply_word"):
            m[f"{name}.failed"] = self.failed[name]
        m["fields.solve_ivp.nfev"] = self.extra["nfev"]
        m["fields.nfev_per_ivp"] = _ratio(self.extra["nfev"], self.calls["fields.solve_ivp"])
        pf = "fields.pushforward_along_word"
        m["fields.pushforward_success_ratio"] = _ratio(
            self.calls[pf] - self.failed[pf], self.calls[pf])
        m["orbits.words_used_ratio"] = _ratio(
            self.extra["words_used"], self.extra["words_used"] + self.extra["words_skipped"])
        m["liealg.words_kept_ratio"] = _ratio(
            self.extra["words_kept"], self.extra["words_generated"])
        m["membership.member_ratio"] = _ratio(
            self.extra["members"], self.calls["membership.member_bounded"])
        m["linalg.exact_solve.cells"] = self.extra["cells"]
        return m


def _ratio(num, den):
    """num / den, or 0.0 when the base is 0 (the base is reported beside it)."""
    return num / den if den else 0.0


# -- per-layer extras ------------------------------------------------------------


def _count_rhs(tracer, args):
    fun = args[0]

    def counted(t, y):
        tracer.extra["nfev"] += 1
        return fun(t, y)

    return (counted,) + tuple(args[1:])


def _count_cells(tracer, args):
    A = args[0]
    tracer.extra["cells"] += len(A) * (len(A[0]) if len(A) else 0)
    return args


def _count_words(tracer, args, report):
    tracer.extra["words_used"] += report.words_used
    tracer.extra["words_skipped"] += report.words_skipped


def _count_bracket_words(tracer, args, filt):
    family_size = len(filt.family)
    generated = family_size
    for level in filt.levels[:-1]:
        generated += len(level) * family_size
    tracer.extra["words_generated"] += generated
    tracer.extra["words_kept"] += sum(len(level) for level in filt.levels)


def _count_members(tracer, args, cert):
    tracer.extra["members"] += int(cert.member)


_BEFORE = {
    "fields.solve_ivp": _count_rhs,
    "linalg.exact_solve": _count_cells,
}

_AFTER = {
    "orbits.orbit_dimension": _count_words,
    "orbits.fixed_time_dimension": _count_words,
    "liealg.filtration": _count_bracket_words,
    "membership.member_bounded": _count_members,
}
