"""Span tracing of obliquetree's public functions, installed from outside.

The library has no tracing hook of its own, so the traced run replaces
each function in TARGETS with a wrapper at every module namespace of the
package that binds it (``tree`` binds ``run_search`` by name, so
``obliquetree.tree.run_search`` is replaced as well as
``obliquetree.splitting.run_search``), and puts the originals back
afterwards.  Spans are kept in memory; per-layer metrics are derived
from them once a pass ends.

``search_random_projection`` is deliberately not wrapped: its direction
generation, canonical dedup and bulk sweep are private helpers, and
leaving it unwrapped books them as ``splitting.run_search.self_s``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# Module -> public functions that get a span.
TARGETS = {
    "dataset": ("node_stats", "project", "load_csv"),
    "splitting": (
        "run_search",
        "search_axis_aligned",
        "search_exhaustive_oblique",
        "search_hill_climb",
        "best_threshold",
        "sse_decrease",
    ),
    "tree": ("grow", "predict_batch", "prune_to_depth", "to_dict", "from_dict"),
    "pruning": ("weakest_link_sequence", "select_subtree", "holdout_lambda"),
    "stumps": (
        "build_expansion",
        "verify_orthonormality",
        "verify_impurity_identity",
        "verify_training_recursion",
        "verify_expansion_reconstruction",
    ),
    "ridge": ("l1_tv_norm", "eval_ridge_batch", "generate_dataset"),
    "experiments": ("estimate_imse", "run_rate_experiment"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# best_threshold calls made under these spans re-solve near-tied
# candidates of a bulk sweep (exhaustive, or random projection booked
# under run_search) rather than scan one coordinate.
_NEAR_TIE_PARENTS = ("splitting.search_exhaustive_oblique", "splitting.run_search")


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "obliquetree" or name.startswith("obliquetree."))
    ]


class Tracer:
    """Holds the spans of the current pass and the installed wrappers.

    A span is ``[name, start, end, parent_index, op_id, observation]``;
    parent_index is -1 for a span opened directly by the benchmark.
    Spans are recorded only between begin_op and end_op, so output
    checks that call the library are not traced.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.recording = False
        self.op_id = -1
        self.kept: list = []  # objects whose id() is used as an identity
        self._replaced: list[tuple[object, str, object]] = []

    # -- operations -------------------------------------------------------
    def begin_op(self):
        self.op_id += 1
        self.recording = True

    def end_op(self):
        self.recording = False
        self.stack.clear()

    def take_spans(self) -> list[list]:
        spans, self.spans, self.kept = self.spans, [], []
        return spans

    # -- installation -----------------------------------------------------
    def install(self):
        if self._replaced:
            raise RuntimeError("tracer already installed")
        import obliquetree.cli  # noqa: F401  (the package does not import it)

        modules = _package_modules()
        for mod_name, fn_names in TARGETS.items():
            home = sys.modules[f"obliquetree.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._replaced.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._replaced):
            setattr(mod, attr, original)
        self._replaced.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(tracer, args, kwargs, result)
            return result

        return wrapper


def _observe_rows(tracer, args, kwargs, result):
    return int(np.shape(args[1] if len(args) > 1 else kwargs["X"])[0])


def _observe_support(tracer, args, kwargs, result):
    return result.direction.support_size


def _observe_split_count(tracer, args, kwargs, result):
    return len(result.internal_ids())


def _observe_sequence(tracer, args, kwargs, result):
    tree = args[0] if args else kwargs["tree"]
    tracer.kept.append(tree)  # keeps id(tree) unique for the pass
    return (len(result.steps), id(tree))


_OBSERVERS = {
    "tree.predict_batch": _observe_rows,
    "splitting.run_search": _observe_support,
    "tree.grow": _observe_split_count,
    "pruning.weakest_link_sequence": _observe_sequence,
}


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took wall_s seconds."""
    out: dict[str, float] = {}
    names = [s[0] for s in spans]
    start = np.array([s[1] for s in spans], dtype=np.float64)
    end = np.array([s[2] for s in spans], dtype=np.float64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    duration = end - start
    child = np.zeros(len(spans))
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    self_time = duration - child

    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)
    module_self: dict[str, float] = {mod: 0.0 for mod in TARGETS}
    for name in SPAN_NAMES:
        rows = by_name.get(name, [])
        total = float(self_time[rows].sum()) if rows else 0.0
        out[f"{name}.calls"] = float(len(rows))
        out[f"{name}.self_s"] = total
        module_self[name.split(".")[0]] += total
    for mod, total in module_self.items():
        out[f"{mod}.self_s"] = total

    def observations(name):
        return [spans[i][5] for i in by_name.get(name, []) if spans[i][5] is not None]

    out["tree.predict_batch.rows"] = float(sum(observations("tree.predict_batch")))

    searches = by_name.get("splitting.run_search", [])
    oblique = sum(1 for s in observations("splitting.run_search") if s > 1)
    out["splitting.oblique_win_ratio"] = oblique / len(searches) if searches else 0.0
    out["splitting.near_tie_resolves"] = float(
        sum(
            1
            for i in by_name.get("splitting.best_threshold", [])
            if parent[i] >= 0 and names[parent[i]] in _NEAR_TIE_PARENTS
        )
    )
    split = sum(observations("tree.grow"))
    out["tree.nodes_searched"] = float(len(searches))
    out["tree.nodes_split"] = float(split)
    out["tree.split_ratio"] = split / len(searches) if searches else 0.0

    sequences = observations("pruning.weakest_link_sequence")
    out["pruning.prune_steps"] = float(sum(steps for steps, _ in sequences))
    out["pruning.sequence_reuse_ratio"] = (
        len({tree_id for _, tree_id in sequences}) / len(sequences) if sequences else 0.0
    )

    top = ~nested
    covered = float(duration[top].sum())
    out["trace.uncovered_s"] = wall_s - covered
    out["trace.uncovered_share"] = (wall_s - covered) / wall_s if wall_s > 0 else 0.0
    return out


def write_spans(path, passes) -> None:
    """Write every pass's spans as JSON lines, one span per line."""
    with open(path, "w") as handle:
        for pass_index, spans in enumerate(passes):
            for span in spans:
                name, start, end, parent, op_id, _ = span
                handle.write(
                    json.dumps(
                        {
                            "pass": pass_index,
                            "op": op_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
