"""Spans around the package's public functions, recorded from outside `src/`.

`install()` replaces every public function of every `markovwindow` module,
wherever a package module looks it up by name, with a wrapper that records
one span: name, start, end and the index of the enclosing span.  Calls that
one wrapped function makes to another therefore nest as child spans.  Three
boundaries that are not module-level functions are wrapped as well:

- `TransitionMatrix.is_irreducible` (a cached property), as `chain.is_irreducible`;
- `TestingInstance.__post_init__`, as `complexity.TestingInstance`;
- `numpy.linalg.eigh`, which only `spectral` calls, as `spectral.eigh`.

Spans stay in memory until `summarize` turns them into per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

MODULES = ("chain", "spectral", "geometry", "complexity", "divergences", "montecarlo", "zoo", "cli")

# Extra facts recorded with a span, taken from the wrapped call's arguments.
_META = {
    "chain.evolve": lambda a, k: int(a[2] if len(a) > 2 else k["t"]),
    "geometry.coefficient_diff": lambda a, k: int((a[2] if len(a) > 2 else k["S"]).d),
    "spectral.eigh": lambda a, k: int(a[0].shape[0]),
    "montecarlo.estimate_error": lambda a, k: (
        int(a[1] if len(a) > 1 else k["n"]),
        int(a[2] if len(a) > 2 else k["trials"]),
    ),
    "divergences.exact_product_tv": lambda a, k: (int(a[0].d), int(a[2] if len(a) > 2 else k["n"])),
    "divergences.exact_lr_error": lambda a, k: (int(a[0].d), int(a[2] if len(a) > 2 else k["n"])),
}

# The computed kernel counts below use these formulas; run.py prints them.
EIGH_FLOPS = "9*d^3 per eigh call (dense symmetric eigenvalues and eigenvectors, Golub & Van Loan, Matrix Computations, sec. 8.3)"
PROJECTION_FLOPS = "2*d^2 per coefficient_diff call (one d x d matrix-vector product)"
ENUMERATION = "d^n outcomes, d^n*n outcome-symbol ops and 16*d^n bytes (two float64 product tables) per exact_* call"
MATRIX_BYTES = "8*d^2 bytes per d x d float64 array at the largest d decomposed"
SMALL_N, LARGE_N = 100, 10_000


class Tracer:
    """Records spans; each span is [name, start, end, parent index, meta]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        meta_of = _META.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   meta_of(args, kwargs) if meta_of else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy

        pkg = importlib.import_module("markovwindow")
        mods = {m: importlib.import_module(f"markovwindow.{m}") for m in MODULES}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for namespace in (pkg, *mods.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(namespace, attr, wrapped[obj])
        prop = vars(mods["chain"].TransitionMatrix)["is_irreducible"]
        self._set(prop, "func", self.wrap("chain.is_irreducible", prop.func))
        inst = mods["complexity"].TestingInstance
        self._set(inst, "__post_init__", self.wrap("complexity.TestingInstance", inst.__post_init__))
        self._set(numpy.linalg, "eigh", self.wrap("spectral.eigh", numpy.linalg.eigh))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[list]:
        """Remove the wrappers and hand over the spans recorded since install()."""
        spans, self.spans = self.spans, []
        self.uninstall()
        return spans


RAW_KEYS = (
    "passes", "import_s", "import_n", "cli_self_s", "zoo_build_s", "zoo_calls",
    "irreducible_s", "stationary_s", "reversibility_s", "evolve_s", "evolve_steps",
    "spectral_calls", "eigh_calls", "eigh_s", "spectral_self_s", "eigh_flops",
    "projections", "projection_s", "decay_calls", "rows", "projection_flops",
    "time_s", "time_queries", "time_delta_evals", "window_s", "report_s", "instances",
    "extreme_pairs_s", "estimate_error_s", "small_s", "small_trials", "large_s",
    "large_trials", "draws", "enumerate_s", "outcomes", "enum_ops", "enum_bytes", "matrix_bytes",
)


# Spans whose durations add up to one per-layer time.
_TIME_OF = {
    "chain.is_irreducible": "irreducible_s",
    "chain.stationary_distribution": "stationary_s",
    "chain.check_reversible": "reversibility_s",
    "chain.symmetrize": "reversibility_s",
    "chain.evolve": "evolve_s",
    "spectral.eigh": "eigh_s",
    "geometry.coefficient_diff": "projection_s",
    "complexity.statistical_time": "time_s",
    "complexity.statistical_window": "window_s",
    "complexity.complexity_report": "report_s",
    "complexity.extreme_pairs": "extreme_pairs_s",
    "montecarlo.estimate_error": "estimate_error_s",
}


def summarize(spans: list[list], totals: dict) -> None:
    """Add the per-layer totals of one list of spans into `totals`."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]

    def bump(key, value=1):
        totals[key] = totals.get(key, 0) + value

    def layer_of(i):
        return spans[i][0].split(".", 1)[0] if i >= 0 else None

    def under(i, name):
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    for i, (name, start, end, parent, meta) in enumerate(spans):
        dur = end - start
        layer = layer_of(i)
        if name in _TIME_OF:
            bump(_TIME_OF[name], dur)
        if layer == "zoo" and layer_of(parent) != "zoo":
            bump("zoo_build_s", dur)
            bump("zoo_calls")
        if name == "cli.main":
            bump("cli_self_s", dur - child[i])
        elif name == "chain.evolve":
            bump("evolve_steps", meta)
        elif name == "spectral.spectral_decomposition":
            bump("spectral_calls")
            bump("spectral_self_s", dur - child[i])
        elif name == "spectral.eigh":
            bump("eigh_calls")
            bump(f"eigh_calls_d{meta}")
            bump("eigh_flops", 9 * meta**3)
            totals["matrix_bytes"] = max(totals.get("matrix_bytes", 0), 8 * meta**2)
        elif name == "geometry.coefficient_diff":
            bump("projections")
            bump("projection_flops", 2 * meta**2)
        elif name == "geometry.decay_distance_sq":
            bump("decay_calls")
            if under(i, "complexity.statistical_time"):
                bump("time_delta_evals")
        elif name == "complexity.TestingInstance":
            bump("instances")
        elif name in ("complexity.complexity_report", "complexity.statistical_window"):
            bump("rows")
        elif name == "complexity.statistical_time":
            bump("rows")
            bump("time_queries")
        elif name == "montecarlo.estimate_error":
            n, trials = meta
            bump("draws", 2 * trials * n)
            cls = "small" if n <= SMALL_N else "large" if n >= LARGE_N else None
            if cls:
                bump(f"{cls}_s", dur)
                bump(f"{cls}_trials", 2 * trials)
        elif name.startswith("divergences.exact_") and layer_of(parent) != "divergences":
            d, n = meta
            bump("enumerate_s", dur)
            bump("outcomes", d**n)
            bump("enum_ops", d**n * n)
            bump("enum_bytes", 16 * d**n)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(totals: dict, overhead_s: float) -> dict:
    """The per-layer metrics: times and counts per traced pass, and ratios."""
    t = {k: totals.get(k, 0) for k in RAW_KEYS}
    p = max(1, t["passes"])
    out = {
        "import.s": (_ratio(t["import_s"], t["import_n"]), "s"),
        "cli.self_s": (t["cli_self_s"] / p, "s"),
        "zoo.build_s": (t["zoo_build_s"] / p, "s"),
        "zoo.calls": (t["zoo_calls"] / p, "count"),
        "chain.irreducible_s": (t["irreducible_s"] / p, "s"),
        "chain.stationary_s": (t["stationary_s"] / p, "s"),
        "chain.reversibility_s": (t["reversibility_s"] / p, "s"),
        "chain.evolve_s": (t["evolve_s"] / p, "s"),
        "chain.evolve_steps": (t["evolve_steps"] / p, "count"),
        "chain.matrix_bytes_computed": (t["matrix_bytes"], "B"),
        "spectral.calls": (t["spectral_calls"] / p, "count"),
        "spectral.eigh_calls": (t["eigh_calls"] / p, "count"),
        "spectral.eigh_s": (t["eigh_s"] / p, "s"),
        "spectral.self_s": (t["spectral_self_s"] / p, "s"),
        "spectral.cache_hit_ratio": (
            1.0 - _ratio(t["eigh_calls"], t["spectral_calls"]) if t["spectral_calls"] else 0.0, "ratio"),
        "spectral.eigh_flops_computed": (t["eigh_flops"] / p, "flop"),
        "geometry.projections": (t["projections"] / p, "count"),
        "geometry.projection_s": (t["projection_s"] / p, "s"),
        "geometry.decay_calls": (t["decay_calls"] / p, "count"),
        "geometry.projections_per_row": (_ratio(t["projections"], t["rows"]), "ratio"),
        "geometry.projection_flops_computed": (t["projection_flops"] / p, "flop"),
        "complexity.time_s": (t["time_s"] / p, "s"),
        "complexity.time_delta_evals_per_query": (_ratio(t["time_delta_evals"], t["time_queries"]), "ratio"),
        "complexity.window_s": (t["window_s"] / p, "s"),
        "complexity.report_s": (t["report_s"] / p, "s"),
        "complexity.instances": (t["instances"] / p, "count"),
        "complexity.extreme_pairs_s": (t["extreme_pairs_s"] / p, "s"),
        "montecarlo.estimate_error_s": (t["estimate_error_s"] / p, "s"),
        "montecarlo.us_per_trial.small_n": (1e6 * _ratio(t["small_s"], t["small_trials"]), "us"),
        "montecarlo.us_per_trial.large_n": (1e6 * _ratio(t["large_s"], t["large_trials"]), "us"),
        "montecarlo.draws_computed": (t["draws"] / p, "count"),
        "divergences.enumerate_s": (t["enumerate_s"] / p, "s"),
        "divergences.outcomes": (t["outcomes"] / p, "count"),
        "divergences.outcome_ops_computed": (t["enum_ops"] / p, "count"),
        "divergences.bytes_computed": (t["enum_bytes"] / p, "B"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: (float(v) if math.isfinite(v) else 0.0, u) for k, (v, u) in out.items()}
