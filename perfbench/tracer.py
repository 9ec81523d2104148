"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ``fraisse`` with
wrappers that count calls, add up inclusive time, and keep a stack of open
spans.  A span's self time is its duration minus the time of the spans it
opened directly, and it is charged to the layer (module) that defines the
wrapped function, so the layers' self times partition the traced time.
Spans are aggregated as they close; nothing is kept per call.

A function is replaced in its defining module and in every loaded
``fraisse`` module that imported it by name; a method is replaced on its
class.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("structures", "classes", "limits", "kernels", "config", "ranks", "ramsey", "cli")

# (module, attribute, metric key); a dotted attribute names a method.
TARGETS = (
    ("structures", "FiniteStructure.canonical_form", "structures.canonical_form"),
    ("structures", "FiniteStructure.__post_init__", "structures.validate"),
    ("structures", "Embedding.__post_init__", "structures.embedding_check"),
    ("structures", "enumerate_structures", "structures.enumerate_structures"),
    ("structures", "find_embeddings", "structures.find_embeddings"),
    ("classes", "ClassSpec.admits", "classes.admits"),
    ("classes", "check_relation_property", "classes.check_relation_property"),
    ("classes", "verify_class_axioms", "classes.verify_class_axioms"),
    ("classes", "check_self_similarity", "classes.check_self_similarity"),
    ("classes", "enumerate_pair_types", "classes.enumerate_pair_types"),
    ("kernels", "missing_graph_demands", "kernels.missing_graph_demands"),
    ("kernels", "graph_demand_met", "kernels.graph_demand_met"),
    ("kernels", "find_mono_box_2d", "kernels.find_mono_box_2d"),
    ("limits", "build_generic_model", "limits.build_generic_model"),
    ("limits", "check_extension_property", "limits.check_extension_property"),
    ("limits", "point_realizes", "limits.point_realizes"),
    ("limits", "build_order_box_model", "limits.build_order_box_model"),
    ("limits", "build_box_model", "limits.build_box_model"),
    ("config", "search_witness", "config.search_witness"),
    ("config", "verify_configuration", "config.verify_configuration"),
    ("config", "witness_violation", "config.witness_violation"),
    ("config", "ConfigCertificate.recheck", "config.recheck"),
    ("ranks", "compute_rank_table", "ranks.compute_rank_table"),
    ("ranks", "build_quad_configuration", "ranks.build_quad_configuration"),
    ("ranks", "counting_upper_bound", "ranks.counting_upper_bound"),
    ("ranks", "verify_dagger_base_case", "ranks.verify_dagger_base_case"),
    ("ramsey", "find_monochromatic_box", "ramsey.find_monochromatic_box"),
    ("ramsey", "find_monochromatic_directed_box", "ramsey.find_monochromatic_directed_box"),
    ("cli", "main", "cli.main"),
)

# Counters beyond calls and time: name -> initial value.
EXTRA = {
    "structures.enumerate.kept": 0,
    "structures.enumerate.canonical_calls": 0,
    "classes.admits.accepted": 0,
    "kernels.missing_graph_demands.missing": 0,
    "config.search_witness.found": 0,
    "cli.import_s": 0.0,
    "cli.emit_bytes": 0,
}


class Tracer:
    def __init__(self):
        self.calls = {key: 0 for _, _, key in TARGETS}
        self.seconds = {key: 0.0 for _, _, key in TARGETS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.extra = dict(EXTRA)
        self._stack: list[list[float]] = []
        self._depth = {key: 0 for _, _, key in TARGETS}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, key in TARGETS:
            module = sys.modules.get(f"fraisse.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(vars(owner)[meth], key, module_name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, key, module_name)
            for name, mod in list(sys.modules.items()):
                if (name == "fraisse" or name.startswith("fraisse.")) and getattr(
                    mod, attr, None
                ) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, key, layer):
        stack, calls, seconds, self_s, depth, extra = (
            self._stack, self.calls, self.seconds, self.self_s, self._depth, self.extra,
        )
        clock = time.perf_counter
        observe = _OBSERVERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            depth[key] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                depth[key] -= 1
                if depth[key] == 0:
                    seconds[key] += duration
            if observe is not None:
                observe(extra, depth, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
        }


def _on_canonical(extra, depth, result):
    if depth["structures.enumerate_structures"]:
        extra["structures.enumerate.canonical_calls"] += 1


def _on_enumerate(extra, depth, result):
    extra["structures.enumerate.kept"] += len(result)


def _on_admits(extra, depth, result):
    extra["classes.admits.accepted"] += bool(result)


def _on_demands(extra, depth, result):
    extra["kernels.missing_graph_demands.missing"] += len(result)


def _on_search(extra, depth, result):
    extra["config.search_witness.found"] += result is not None


_OBSERVERS = {
    "structures.canonical_form": _on_canonical,
    "structures.enumerate_structures": _on_enumerate,
    "classes.admits": _on_admits,
    "kernels.missing_graph_demands": _on_demands,
    "config.search_witness": _on_search,
}


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (used for the cli workload's children)."""
    if not total:
        return {k: dict(v) for k, v in part.items()}
    for section, values in part.items():
        for key, value in values.items():
            total[section][key] = total[section].get(key, 0) + value
    return total


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics of one traced round, by name."""
    out = {}
    for _, _, key in TARGETS:
        out[f"{key}.calls"] = (snap["calls"][key], "count")
        out[f"{key}.s"] = (snap["seconds"][key], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (snap["self_s"][layer], "s")
    extra, calls = snap["extra"], snap["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    out["structures.enumerate.kept_ratio"] = (
        ratio(extra["structures.enumerate.kept"], extra["structures.enumerate.canonical_calls"]),
        "ratio",
    )
    out["classes.admits.accepted_ratio"] = (
        ratio(extra["classes.admits.accepted"], calls["classes.admits"]),
        "ratio",
    )
    out["kernels.missing_graph_demands.missing"] = (
        extra["kernels.missing_graph_demands.missing"],
        "count",
    )
    out["cli.import_s"] = (extra["cli.import_s"], "s")
    out["cli.emit_bytes"] = (extra["cli.emit_bytes"], "bytes")
    out["config.search_witness.found_ratio"] = (
        ratio(extra["config.search_witness.found"], calls["config.search_witness"]),
        "ratio",
    )
    return out
