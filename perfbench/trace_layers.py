"""Spans and counters around the public functions of each nlasim layer.

The tracer measures from outside the package: it replaces each public name
listed in ``LAYERS`` by a timing wrapper in every ``nlasim`` module namespace
that holds it (``cli.apply_strategy`` as well as ``distill.apply_strategy``),
and changes no file under ``src/``.  A name that a refactor moved or removed
is reported as absent; its metrics read zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# layer (module) -> public names whose calls are timed; ``oracle`` is the
# slow reference and stays unmeasured
LAYERS = (
    ("fock", ("apply_loss", "apply_diagonal", "log_negativity")),
    ("nla", ("nla_diagonal", "amplify_coherent")),
    ("distill", ("lossy_pdc_densities", "apply_strategy",
                 "reference_no_nla")),
    ("optimize", ("maximize_over_T",)),
    ("cli", ("build_experiment", "render_rows")),
)


def traced_names() -> list:
    return [f"{layer}.{name}" for layer, names in LAYERS for name in names]


# per-layer metrics of one traced invocation: name -> unit
LAYER_METRICS = {}
for _label in traced_names():
    LAYER_METRICS[f"{_label}.calls"] = "count"
    LAYER_METRICS[f"{_label}.s"] = "s"
    LAYER_METRICS[f"{_label}.self_s"] = "s"
LAYER_METRICS.update({
    "fock.dense_bytes": "bytes",          # computed: sum of matrix.nbytes
    "nla.nla_diagonal.distinct": "count",
    "distill.vacuum_share": "ratio",
    "optimize.objective_calls": "count",
    "optimize.edge_optima": "count",
})


class Tracer:
    """In-memory spans ``[name, parent index, start, end]`` plus counters."""

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self._open: list = []
        self._diagonals: set = set()
        self._supermodes = 0
        self._vacuum = 0
        self._dense_bytes = 0
        self._objective_calls = 0
        self._edge_optima = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed name in every loaded ``nlasim`` namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nlasim"
                                         or n.startswith("nlasim."))]
        for layer, names in LAYERS:
            home = sys.modules.get(f"nlasim.{layer}")
            for name in names:
                label = f"{layer}.{name}"
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(label)
                    continue
                wrapper = self._wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, label: str, original):
        note = {"fock": self._note_density,
                "nla.nla_diagonal": self._note_diagonal,
                "distill.lossy_pdc_densities": self._note_source,
                "optimize.maximize_over_T": self._count_objective}
        before = note.get(label, note.get(label.split(".")[0]))
        after = self._note_edge if label == "optimize.maximize_over_T" \
            else None
        signature = None
        if before is not None or after is not None:
            try:
                signature = inspect.signature(original)
            except (TypeError, ValueError):
                pass

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # binding costs more than a short call, so only hooks pay for it
            bound = _bind(signature, args, kwargs)
            if before is not None:
                args, kwargs = before(bound, args, kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [label, parent, time.perf_counter(), None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(bound, result)
            return result

        return wrapper

    # -- counters taken at the call boundary --------------------------------

    def _note_density(self, bound, args, kwargs):
        for value in bound.values():
            nbytes = getattr(getattr(value, "matrix", None), "nbytes", None)
            if isinstance(nbytes, int):
                self._dense_bytes += nbytes
        return args, kwargs

    def _note_diagonal(self, bound, args, kwargs):
        self._diagonals.add(repr(sorted(bound.items())))
        return args, kwargs

    def _note_source(self, bound, args, kwargs):
        squeezings = getattr(bound.get("spec"), "squeezings", None)
        if squeezings is not None:
            self._supermodes += len(squeezings)
            self._vacuum += sum(1 for r in squeezings if r == 0)
        return args, kwargs

    def _count_objective(self, bound, args, kwargs):
        objective = bound.get("objective")
        if not callable(objective):
            return args, kwargs

        def counted(*a, **k):
            self._objective_calls += 1
            return objective(*a, **k)

        if "objective" in kwargs:
            kwargs = dict(kwargs, objective=counted)
        else:
            args = (counted,) + tuple(args[1:])
        return args, kwargs

    def _note_edge(self, bound, result):
        config = bound.get("config")
        if config is None:
            default = getattr(sys.modules.get("nlasim.optimize"),
                              "SweepConfig", None)
            config = default() if default is not None else None
        try:
            t_star = float(result[0])
            lo, hi = config.t_min, config.t_max
            cell = (hi - lo) / (config.grid_points - 1)
        except (AttributeError, TypeError, IndexError, ZeroDivisionError):
            return
        if t_star - lo <= cell or hi - t_star <= cell:
            self._edge_optima += 1

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of this process: calls, span and self time."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for label in traced_names():
            out[f"{label}.calls"] = 0
            out[f"{label}.s"] = 0.0
            out[f"{label}.self_s"] = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
        out["fock.dense_bytes"] = self._dense_bytes
        out["nla.nla_diagonal.distinct"] = len(self._diagonals)
        out["distill.vacuum_share"] = (self._vacuum / self._supermodes
                                       if self._supermodes else 0.0)
        out["optimize.objective_calls"] = self._objective_calls
        out["optimize.edge_optima"] = self._edge_optima
        return out


def _bind(signature, args, kwargs) -> dict:
    """Arguments by parameter name, defaults included, or {} if unbindable."""
    if signature is None:
        return {}
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return dict(bound.arguments)
