"""In-memory span tracer that wraps brauerloop's public functions from outside.

Each traced function is replaced, under every name a caller can look it up
by, with a wrapper that records one span (name, start, end, parent) and
updates a few work counters.  Lookups happen at call time through module
globals and class attributes, so the replacement is made by identity: every
binding of the original object in every ``brauerloop`` module namespace and
class dictionary is swapped.  That catches re-exports (``loopchain.rank``,
``escheme.rank``, ``pfdet.det``, ``cli.compute_table``) and aliases such as
``MultiPoly.__rmul__ = __mul__``.

Self time is a span's duration minus the time covered by its direct child
spans.  Every path is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter
from pathlib import Path


def _mul_pairs(c, active, args, kw, result):
    self, other = args[0], args[1]
    other_terms = len(other.terms) if hasattr(other, "terms") else 1
    c["exactpoly.mul.term_pairs"] += len(self.terms) * other_terms


def _divide_terms(c, active, args, kw, result):
    c["exactpoly.exact_divide.quotient_terms"] += len(result.terms)


def _evaluate_terms(c, active, args, kw, result):
    c["exactpoly.evaluate.terms"] += len(args[0].terms)


def _stored_terms(table):
    return sum(len(p.terms) for p in table.entries.values())


def _table_built(c, active, args, kw, result):
    c["psitable.patterns_filled"] += len(result.entries) - 1
    c["psitable.stored_terms"] += _stored_terms(result)


def _table_loaded(c, active, args, kw, result):
    c["psitable.stored_terms"] += _stored_terms(result)


def _step_in_build(c, active, args, kw, result):
    if active["psitable.compute_table"]:
        c["psitable.recursion_step.in_build"] += 1


def _rank_cells(c, active, args, kw, result):
    rows = args[0]
    c["linalg.rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _states(c, active, args, kw, result):
    c["loopchain.states"] += len(result.normalized)


def _generic_ok(c, active, args, kw, result):
    c["escheme.check_generic.ok"] += 1


def _table_bytes(c, active, args, kw, result):
    path = args[1] if len(args) > 1 else kw["path"]
    c["cli.table_bytes"] += Path(path).stat().st_size


def _store_hit(c, active, args, kw, result):
    c["cli.store_load.hits"] += result is not None


# (module, attribute path, span name, counter hook run after a normal return;
# it sees the counters and the depth of every open span name)
TARGETS = [
    ("exactpoly", "MultiPoly.__mul__", "exactpoly.mul", _mul_pairs),
    ("exactpoly", "MultiPoly.__add__", "exactpoly.add", None),
    ("exactpoly", "MultiPoly.tau", "exactpoly.tau", None),
    ("exactpoly", "MultiPoly.ddiff", "exactpoly.ddiff", None),
    ("exactpoly", "MultiPoly.theta", "exactpoly.theta", None),
    ("exactpoly", "MultiPoly.exact_divide", "exactpoly.exact_divide", _divide_terms),
    ("exactpoly", "MultiPoly.evaluate", "exactpoly.evaluate", _evaluate_terms),
    ("exactpoly", "MultiPoly.specialize_a", "exactpoly.specialize_a", None),
    ("exactpoly", "MultiPoly.subs_z", "exactpoly.subs_z", None),
    ("psitable", "compute_table", "psitable.compute_table", _table_built),
    ("psitable", "recursion_step", "psitable.recursion_step", _step_in_build),
    ("psitable", "MdegTable.from_obj", "psitable.from_obj", _table_loaded),
    ("psitable", "MdegTable.validate", "psitable.validate", None),
    ("psitable", "MdegTable.content_hash", "psitable.content_hash", None),
    ("psitable", "verify_exchange", "psitable.verify_exchange", None),
    ("psitable", "positivity_spot_check", "psitable.positivity", None),
    ("psitable", "sum_rule_total", "psitable.sum_rule_total", None),
    ("psitable", "smallarch_check", "psitable.smallarch", None),
    ("psitable", "specialize_check", "psitable.specialize", None),
    ("psitable", "rotation_check", "psitable.rotation", None),
    ("linkpat", "apply_e", "linkpat.apply_e", None),
    ("linkpat", "apply_f", "linkpat.apply_f", None),
    ("linkpat", "enumerate_patterns", "linkpat.enumerate_patterns", None),
    ("loopchain", "transition_matrix", "loopchain.transition_matrix", None),
    ("loopchain", "stationary", "loopchain.stationary", _states),
    ("linalg", "rank", "linalg.rank", _rank_cells),
    ("linalg", "solve", "linalg.solve", None),
    ("linalg", "det", "linalg.det", None),
    ("pfdet", "skew_sum", "pfdet.skew_sum", None),
    ("pfdet", "d1_mdeg_localization", "pfdet.d1_mdeg_localization", None),
    ("pfdet", "total_mdeg_pfaffian_value", "pfdet.total_mdeg_pfaffian_value", None),
    ("commvar", "delta", "commvar.delta", None),
    ("commvar", "crosscheck_with_table", "commvar.crosscheck", None),
    ("circlealg", "cp_mul", "circlealg.cp_mul", None),
    ("circlealg", "cp_inv", "circlealg.cp_inv", None),
    ("circlealg", "s_mul", "circlealg.s_mul", None),
    ("escheme", "random_sample", "escheme.random_sample", None),
    ("escheme", "check_generic", "escheme.check_generic", _generic_ok),
    ("escheme", "check_rank_bounds", "escheme.check_rank_bounds", None),
    ("escheme", "tangent_dimension", "escheme.tangent_dimension", None),
    ("escheme", "stabilizer_codim", "escheme.stabilizer_codim", None),
    ("cli", "write_table", "cli.write_table", _table_bytes),
    ("cli", "TableStore.load", "cli.store_load", _store_hit),
]

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Metrics of the traced run that run.py computes itself, not the tracer.
RUN_METRICS = {"trace.overhead_s"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the tracer reports, from BENCHMARK.json."""
    per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
    return [(m["name"], m["unit"]) for m in per_layer if m["name"] not in RUN_METRICS]


def _brauerloop_modules():
    import brauerloop

    for info in pkgutil.iter_modules(brauerloop.__path__):
        importlib.import_module(f"brauerloop.{info.name}")
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "brauerloop" or name.startswith("brauerloop."))]


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"brauerloop.{module}")
    for part in path.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class Tracer:
    """Records spans and counters for the patched functions; install/uninstall."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, bool] | None] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, active, counters = self.spans, self._stack, self._active, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = not active[name]
            stack.append(idx)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, outermost)
            if hook is not None:
                hook(counters, active, args, kw, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = _brauerloop_modules()
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("brauerloop")]
        for module, path, name, hook in TARGETS:
            target = _resolve(module, path)
            fn = target.__func__ if isinstance(target, classmethod) else target
            wrapper = self._wrap(name, fn, hook)
            patched = 0
            for owner in modules + list(dict.fromkeys(classes)):
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        new = wrapper
                    elif isinstance(value, classmethod) and value.__func__ is fn:
                        new = classmethod(wrapper)
                    else:
                        continue
                    self._undo.append((owner, key, value))
                    setattr(owner, key, new)
                    patched += 1
            if not patched:
                raise RuntimeError(f"no binding of brauerloop.{module}.{path} was patched")

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # ----------------------------------------------------------------- reporting

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive total_s (outermost spans) and self_s."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, outermost = span
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outermost:
                row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
        return out

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """The per_layer_metrics() values, averaged over the given number of passes."""
        summary = self.summary()
        c = self.counters
        values: dict[str, float] = {}
        for metric, _ in per_layer_metrics():
            name, _, field = metric.rpartition(".")
            if field in ("calls", "self_s", "total_s"):
                values[metric] = summary.get(name, {}).get(field, 0)
            else:
                values[metric] = c[metric]
        steps = c["psitable.recursion_step.in_build"]
        values["psitable.step_useful_ratio"] = c["psitable.patterns_filled"] / steps if steps else 0.0
        generic = summary.get("escheme.check_generic", {}).get("calls", 0)
        values["escheme.sample_useful_ratio"] = c["escheme.check_generic.ok"] / generic if generic else 0.0
        loads = summary.get("cli.store_load", {}).get("calls", 0)
        values["cli.store_hit_ratio"] = c["cli.store_load.hits"] / loads if loads else 0.0
        ratios = {"psitable.step_useful_ratio", "escheme.sample_useful_ratio", "cli.store_hit_ratio"}
        for k, v in values.items():
            if k not in ratios:
                values[k] = v // passes if isinstance(v, int) and v % passes == 0 else v / passes
        return values

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span[:4]) + "\n")
