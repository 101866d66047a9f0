"""Spans around calls into entrobound's public functions, taken from outside.

``install`` wraps each traced function and rebinds the wrapper under every
name that holds the original in any loaded ``entrobound`` module: the
engines bind ``norm``, ``norm_numeric`` and friends with ``from .norms
import ...``, so patching only the defining module would miss their calls.
Spans stay in memory as ``[id, parent, name, t0, t1, error, attrs]`` and
are written out once the run ends; :func:`layer_metrics` turns them into
the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (module, function) pairs wrapped in a traced run.
TARGETS = (
    ("cli", "main"),
    ("experiments", "run_fig_region"),
    ("experiments", "run_norm_profile"),
    ("experiments", "run_compare_sweep"),
    ("experiments", "run_compare_random"),
    ("experiments", "run_werner_masks"),
    ("experiments", "run_conjecture_fuzz"),
    ("experiments", "run_randomness_sweep"),
    ("experiments", "write_table"),
    ("bounds", "compare_state_independent"),
    ("bounds", "envelope_curve"),
    ("norms", "norm"),
    ("norms", "norm_numeric"),
    ("norms", "norm_closed_form"),
    ("overlap", "from_unitary"),
    ("overlap", "rotation_overlap_2d"),
    ("overlap", "build_overlap"),
    ("qmath", "haar_random_unitary"),
    ("qmath", "random_density_matrix"),
    ("qmath", "von_neumann_entropy"),
    ("qmath", "shannon_entropy"),
    ("qmath", "measurement_distribution"),
    ("applications", "werner_detection_scan"),
)

GROUPS = {
    "overlap.construct": ("overlap.from_unitary", "overlap.rotation_overlap_2d",
                          "overlap.build_overlap"),
    "qmath": ("qmath.haar_random_unitary", "qmath.random_density_matrix",
              "qmath.von_neumann_entropy", "qmath.shannon_entropy",
              "qmath.measurement_distribution"),
}
NORM_CLASSES = ("boundary", "theorem", "conjectured", "mu_star")
CLASS_DIMS = {"boundary": (2, 3, 4), "theorem": (2, 3, 4),
              "conjectured": (2, 3, 4), "mu_star": (2, 3, 4, 8, 12)}
NORM_ERRORS = ("SolverFailureError", "NormConsistencyError")


def _exponents(args, kwargs):
    """(d, r, s) of a norm_numeric call, from its (c, r, s, w=...) arguments."""
    c = args[0] if args else kwargs["c"]
    m = getattr(c, "matrix", c)
    d = len(m)
    w = kwargs.get("w")
    if w is not None:
        return d, w.r, w.s
    r = args[1] if len(args) > 1 else kwargs["r"]
    s = args[2] if len(args) > 2 else kwargs["s"]
    return d, float(r), float(s)


class Tracer:
    """Records nested spans of the wrapped calls of one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        attrs_of = _exponents if name == "norms.norm_numeric" else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None,
                   attrs_of(args, kwargs) if attrs_of else None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = [type(exc).__name__, id(exc)]
                raise
            finally:
                rec[4] = clock()
                stack.pop()

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target under every name bound to it in loaded entrobound modules."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "entrobound" or n.startswith("entrobound."))]
    for mod_name, fn_name in TARGETS:
        original = getattr(sys.modules[f"entrobound.{mod_name}"], fn_name)
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _percentile_ms(durations: list, q: float) -> float:
    """Nearest-rank percentile of durations in seconds, reported in ms."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def norm_class(r: float, s: float, under_compare: bool) -> str:
    """Weight class of a norm_numeric call; see bench/README.md."""
    if under_compare:
        return "mu_star"
    if r == 1.0 or s == 1.0 or math.isinf(r) or math.isinf(s):
        return "boundary"
    return "theorem" if s <= r else "conjectured"


def layer_metrics(spans: list, wall_s: float, untraced_wall_s: float,
                  bytes_written: int) -> dict:
    """Per-layer metric values from one traced run's spans."""
    n = len(spans)
    dur = [sp[4] - sp[3] for sp in spans]
    child_time = [0.0] * n
    for sp, dt in zip(spans, dur):
        if sp[1] >= 0:
            child_time[sp[1]] += dt
    self_time = [dt - ct for dt, ct in zip(dur, child_time)]
    name = [sp[2] for sp in spans]
    # Parents always precede children, so one forward pass fills ancestry.
    under_compare = [False] * n
    has_numeric_child = [False] * n
    for i, sp in enumerate(spans):
        p = sp[1]
        if p >= 0:
            under_compare[i] = under_compare[p] or name[p] == "bounds.compare_state_independent"
            if name[i] == "norms.norm_numeric":
                has_numeric_child[p] = True

    def busy(members) -> float:
        """Time covered by spans named in ``members`` (outermost ones only)."""
        inside = [False] * n
        total = 0.0
        for i, sp in enumerate(spans):
            p = sp[1]
            inside[i] = p >= 0 and (inside[p] or name[p] in members)
            if name[i] in members and not inside[i]:
                total += dur[i]
        return total

    def of(fn):
        return [i for i in range(n) if name[i] == fn]

    out = {}
    numeric = {}
    for i in of("norms.norm_numeric"):
        d, r, s = spans[i][6]
        numeric.setdefault((norm_class(r, s, under_compare[i]), d), []).append(dur[i])
    for cls in NORM_CLASSES:
        for d in CLASS_DIMS[cls]:
            ts = numeric.get((cls, d), [])
            out[f"norms.norm_numeric.calls.{cls}.d{d}"] = len(ts)
            out[f"norms.norm_numeric.busy_s.{cls}.d{d}"] = sum(ts)
            out[f"norms.norm_numeric.ms_p50.{cls}.d{d}"] = _percentile_ms(ts, 0.50)
            out[f"norms.norm_numeric.ms_p99.{cls}.d{d}"] = _percentile_ms(ts, 0.99)
    out["norms.norm_numeric.calls"] = len(of("norms.norm_numeric"))
    out["norms.norm_numeric.busy_s"] = busy({"norms.norm_numeric"})
    calls = of("norms.norm")
    out["norms.norm.calls"] = len(calls)
    out["norms.norm.busy_s"] = busy({"norms.norm"})
    hits = sum(1 for i in calls if not has_numeric_child[i])
    out["norms.norm.closed_hit_ratio"] = hits / len(calls) if calls else 0.0
    out["norms.norm_closed_form.calls"] = len(of("norms.norm_closed_form"))
    out["norms.norm_closed_form.busy_s"] = busy({"norms.norm_closed_form"})
    # An exception propagating through nested spans counts once, where it was raised.
    passed_on = {sp[1] for sp in spans
                 if sp[5] is not None and sp[1] >= 0 and spans[sp[1]][5] == sp[5]}
    out["norms.errors"] = sum(1 for i, sp in enumerate(spans) if sp[5] is not None
                              and sp[5][0] in NORM_ERRORS and i not in passed_on)
    compare = of("bounds.compare_state_independent")
    out["bounds.compare_state_independent.calls"] = len(compare)
    out["bounds.compare_state_independent.self_s"] = sum(self_time[i] for i in compare)
    out["bounds.compare_state_independent.ms_p50"] = _percentile_ms([dur[i] for i in compare], 0.50)
    out["bounds.compare_state_independent.ms_p99"] = _percentile_ms([dur[i] for i in compare], 0.99)
    out["bounds.envelope_curve.busy_s"] = busy({"bounds.envelope_curve"})
    for group, members in GROUPS.items():
        out[f"{group}.calls"] = sum(1 for x in name if x in members)
        out[f"{group}.busy_s"] = busy(set(members))
    out["applications.werner_detection_scan.busy_s"] = busy({"applications.werner_detection_scan"})
    out["experiments.run.self_s"] = sum(self_time[i] for i in range(n)
                                        if name[i].startswith("experiments.run_"))
    out["experiments.write_table.s"] = busy({"experiments.write_table"})
    out["experiments.write_table.bytes"] = bytes_written
    out["cli.main.busy_s"] = busy({"cli.main"})
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    return out
