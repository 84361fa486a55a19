"""Span recorder and the wrappers that feed it from outside the program.

``install`` replaces the public functions and methods of the six polydil
layers with timing wrappers, in every polydil namespace that holds them
(names imported by value, such as ``operator_norm`` inside ``hardy``,
included), and ``uninstall`` puts the originals back.  The program itself is
not changed.  A span is named ``<layer>.<qualname>``; its self time is its
duration minus the part its child spans cover, so the self times of all
spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "tuples", "matcore", "hardy", "realization", "vonneumann")


class Recorder:
    """In-memory spans (id, parent, name, start, end, attrs) and per-name
    call counts, inclusive times and self times.

    Every span updates the per-name totals.  Only spans lasting at least
    ``keep_s`` are stored, which keeps memory flat under the hundreds of
    thousands of helper calls one identity suite makes; a stored span's
    parent lasts at least as long, so it is stored too.
    """

    def __init__(self, keep_s: float = 1e-3) -> None:
        self.keep_s = keep_s
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.attrs: dict[str, list[dict]] = defaultdict(list)
        self.root_time = 0.0
        self._stack: list[list] = []
        self._next_id = 0

    def open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list, end: float, attrs: dict | None = None) -> None:
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = None
            self.root_time += duration
        if attrs:
            self.attrs[name].append(attrs)
        if duration >= self.keep_s:
            self.spans.append((span_id, parent_id, name, start, end, attrs))

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out


def _shape_sizes(args, out) -> dict:
    t = args[0]
    return {"d": t.dim, "n": t.n}


def _realization_sizes(args, out) -> dict:
    return {"e": out.dim_e, "f": out.dim_f, "partition": list(out.partition)}


def _suite_sizes(args, out) -> dict:
    m = args[0].n - 1
    worst = max((row.residual / row.bound for row in out.rows if row.bound > 0), default=0.0)
    return {
        "d": args[0].dim,
        "cap": out.cap,
        "taylor_cap": out.taylor_cap,
        "box": (out.cap + 1) ** m,
        "torus_points": out.inner_total,
        "worst_row_ratio": worst,
    }


def _box_sizes(args, out) -> dict:
    t, cap = args[0], args[3]
    m = t.n - 1
    return {"d": t.dim, "cap": cap, "box": (cap + 1) ** m}


def _embedding_sizes(args, out) -> dict:
    t, cap = args[0], args[3]
    return {"d": t.dim, "cap": cap, "box": (cap + 1) ** t.n}


def _inner_sizes(args, out) -> dict:
    return {"points": out.grid_points, "singular": out.singular_points}


def _torus_sizes(args, out) -> dict:
    return {"points": out.grid ** out.points.shape[1], "singular": out.singular_points}


def _variety_sizes(args, out) -> dict:
    return {"points": len(out.points)}


def _vn_sizes(args, out) -> dict:
    return {"grid": out.grid, "margin": out.margin}


def _written_bytes(args, out) -> dict:
    path = args[1]
    return {"bytes": os.path.getsize(path) if path != "-" else 0}


# Sizes attached to the spans of these functions, read from their arguments
# and results after the call returns.
SIZES = {
    "tuples.verify_certificate": _shape_sizes,
    "tuples.last_defect_certificate": _shape_sizes,
    "realization.build_generating_unitary": _realization_sizes,
    "realization.run_identity_suite": _suite_sizes,
    "realization.lifting_residual": _box_sizes,
    "realization.strict_multiplier_residual": _box_sizes,
    "hardy.canonical_isometry": _embedding_sizes,
    "realization.inner_check": _inner_sizes,
    "vonneumann.precompute_torus": _torus_sizes,
    "vonneumann.variety_sample": _variety_sizes,
    "vonneumann.vn_check": _vn_sizes,
    "cli.write_document": _written_bytes,
}


class Tracer:
    """Holds the recorder the installed wrappers report to."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        sizes = SIZES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.recorder
            frame = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.close(frame, time.perf_counter())
                raise
            end = time.perf_counter()
            rec.close(frame, end, sizes(args, out) if sizes else None)
            return out

        return traced

    def install(self) -> int:
        """Wrap every public function and method of the six layers; returns
        the number of attributes replaced."""
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"polydil.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._patch(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}"))
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "polydil" or key.startswith("polydil.")
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        return len(self._patches)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# Per-layer metrics read from the span totals of the named spans: a name
# ending in "_calls" sums call counts, one ending in "_s" inclusive seconds.
FUNCTION_METRICS = {
    "cli.load_s": ["cli.load_document", "cli.tuple_from_doc"],
    "cli.dump_s": ["cli.write_document"],
    "tuples.verify_certificate_s": ["tuples.verify_certificate"],
    "tuples.spectral_radius_calls": ["tuples.spectral_radius"],
    "matcore.operator_norm_calls": ["matcore.operator_norm"],
    "matcore.inv_resolvent_calls": ["matcore.inv_resolvent"],
    "matcore.inv_resolvent_s": ["matcore.inv_resolvent"],
    "matcore.eigvals_small_calls": ["matcore.eigvals_small"],
    "matcore.eigvals_small_s": ["matcore.eigvals_small"],
    "matcore.det_calls": ["matcore.det"],
    "matcore.unitary_completion_s": ["matcore.unitary_completion"],
    "hardy.isometry_defect_s": ["hardy.CoefficientEmbedding.isometry_defect"],
    "hardy.intertwine_mz_s": ["hardy.intertwine_mz_residual"],
    "hardy.defect_embedding_s": ["hardy.defect_embedding_residual"],
    "hardy.block_pullback_s": ["hardy.block_pullback_residuals"],
    "hardy.adjoint_monomial_s": ["hardy.adjoint_monomial_residual"],
    "hardy.colligation_pullback_s": ["hardy.colligation_pullback_residual"],
    "realization.build_s": ["realization.build_generating_unitary"],
    "realization.transfer_taylor_s": ["realization.transfer_taylor"],
    "realization.lifting_s": ["realization.lifting_residual"],
    "realization.strict_multiplier_s": ["realization.strict_multiplier_residual"],
    "realization.inner_check_s": ["realization.inner_check"],
    "realization.schur_s": ["realization.schur_identity_residual"],
    "realization.transfer_eval_calls": ["realization.transfer_eval"],
    "realization.transfer_eval_s": ["realization.transfer_eval"],
    "vonneumann.precompute_torus_s": ["vonneumann.precompute_torus"],
    "vonneumann.split_transfer_s": ["vonneumann.split_transfer"],
    "vonneumann.torus_sup_s": ["vonneumann.torus_sup"],
    "vonneumann.polydisc_grid_sup_s": ["vonneumann.polydisc_grid_sup"],
    "vonneumann.eval_poly_tuple_s": ["vonneumann.eval_poly_tuple"],
    "vonneumann.variety_sample_s": ["vonneumann.variety_sample"],
}


def _attr_values(recorders, name: str, key: str) -> list:
    return [a[key] for rec in recorders for a in rec.attrs.get(name, ())]


def layer_metrics(setup: Recorder, rounds: Recorder, n_rounds: int) -> dict[str, float]:
    """Per-layer values on the basis of one set-up plus one average round.

    Times, counts and sizes add the set-up's share to the mean over the
    traced rounds; ratios, minima and maxima are taken over everything traced.
    """

    def basis(read) -> float:
        return float(read(setup) + read(rounds) / n_rounds)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = basis(lambda rec: rec.layer_self()[layer])
    for metric, names in FUNCTION_METRICS.items():
        table = "calls" if metric.endswith("_calls") else "total"
        out[metric] = basis(lambda rec: sum(getattr(rec, table).get(n, 0) for n in names))
    out["cli.bytes_out"] = basis(
        lambda rec: sum(_attr_values((rec,), "cli.write_document", "bytes"))
    )
    out["vonneumann.variety_points"] = basis(
        lambda rec: sum(_attr_values((rec,), "vonneumann.variety_sample", "points"))
    )
    recs = (setup, rounds)
    torus = ("realization.inner_check", "vonneumann.precompute_torus")
    points = sum(sum(_attr_values(recs, name, "points")) for name in torus)
    singular = sum(sum(_attr_values(recs, name, "singular")) for name in torus)
    out["realization.torus_regular_ratio"] = (points - singular) / points if points else 0.0
    out["realization.worst_row_ratio"] = float(
        max(_attr_values(recs, "realization.run_identity_suite", "worst_row_ratio"), default=0.0)
    )
    out["vonneumann.min_margin"] = float(
        min(_attr_values(recs, "vonneumann.vn_check", "margin"), default=0.0)
    )
    return out


def slowest(recorders, key: str = "self_time", count: int = 5) -> list[tuple[str, float]]:
    """The ``count`` span names with the largest summed ``key`` table."""
    merged: dict[str, float] = defaultdict(float)
    for rec in recorders:
        for name, value in getattr(rec, key).items():
            merged[name] += value
    return sorted(merged.items(), key=lambda item: -item[1])[:count]
