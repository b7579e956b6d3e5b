"""Per-layer spans for the traced benchmark run.

The library carries no tracing of its own yet, so the benchmark wraps the
public functions of each module at every name a caller looks them up by:
``recognition.link`` as well as ``complexes.link``, ``homology.smith_normal_form``
as well as ``snf.smith_normal_form``, and so on.  Each wrapper records a
span: its duration, its calls, and its self time (duration minus the time of
the spans it encloses).  Counters are read from arguments and results at the
same boundaries.  ``install`` patches, ``uninstall`` restores.

Work done by the counters themselves is charged to the ``trace.hook`` span,
so the self times of all spans add up to the wall time of the traced ops.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, attribute)
SPANS = {
    "complexes.link": ("circuitsmith.complexes", "link"),
    "complexes.star": ("circuitsmith.complexes", "star"),
    "complexes.barycentric_subdivision": ("circuitsmith.complexes", "barycentric_subdivision"),
    "recognition.classify_point": ("circuitsmith.recognition", "classify_point"),
    "recognition.region_is_pl_manifold": ("circuitsmith.recognition", "region_is_pl_manifold"),
    "circuits.verify_circuit": ("circuitsmith.circuits", "verify_circuit"),
    "circuits.singular_set": ("circuitsmith.circuits", "singular_set"),
    "circuits.verify_manifold_complement": ("circuitsmith.circuits", "verify_manifold_complement"),
    "circuits.verify_nullbordism": ("circuitsmith.circuits", "verify_nullbordism"),
    "obstructions.cw_dimension_bound": ("circuitsmith.obstructions", "cw_dimension_bound"),
    "obstructions.dual_complex": ("circuitsmith.obstructions", "dual_complex"),
    "homology.homology": ("circuitsmith.homology", "homology"),
    "homology.orient_circuit": ("circuitsmith.homology", "orient_circuit"),
    "homology.fundamental_class": ("circuitsmith.homology", "fundamental_class"),
    "homology.evaluate": ("circuitsmith.homology", "evaluate"),
    "snf.smith_normal_form": ("circuitsmith.snf", "smith_normal_form"),
    "limits.limit_set": ("circuitsmith.limits", "limit_set"),
    "pipeline.psi": ("circuitsmith.pipeline", "psi"),
    "pipeline.verify_bordism_certificate": ("circuitsmith.pipeline", "verify_bordism_certificate"),
    "serialize.reverify_certificate": ("circuitsmith.serialize", "reverify_certificate"),
    # Reading and decoding input files, and encoding and writing reports.
    "serialize.parse": ("circuitsmith.cli", "_load"),
    "serialize.emit": ("circuitsmith.cli", "_emit"),
}

# Every JSON decoder and encoder in ``serialize`` is charged to parse / emit.
_PARSE_SUFFIX = "_from_json"
_EMIT_SUFFIX = "_to_json"

HOOK = "trace.hook"
ROOT = "cli.main"

COUNTERS = (
    "complexes.barycentric_subdivision.out_simplices",
    "recognition.unknown_points",
    "homology.boundary_cells",
    "snf.smith_normal_form.cells",
    "snf.smith_normal_form.nonzeros",
    "pipeline.rejections",
    "cli.bytes_read",
    "serialize.cert_bytes",
)
REPEATS = ("complexes.link", "recognition.classify_point")


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)  # inclusive of child spans
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.repeats: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [repeats, calls]
        self._seen: dict[str, set] = defaultdict(set)
        self._stack: list[float] = []  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []
        self._validations = [0]
        self._paused = [False]

    # -- spans ---------------------------------------------------------------

    def _charge_hook(self, started: float) -> None:
        dt = time.perf_counter() - started
        self.self_s[HOOK] += dt
        if self._stack:
            self._stack[-1] += dt

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own corpus generation) record
        nothing."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def wrap(self, name: str, fn, before=None, after=None, on_error=None):
        paused = self._paused
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            if before is not None:
                h = clock()
                before(*args, **kwargs)
                self._charge_hook(h)
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                total_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                h = clock()
                after(result, *args, **kwargs)
                self._charge_hook(h)
            return result

        return span

    def call_root(self, fn, *args):
        """Run one CLI op as the root span."""
        self._seen.clear()
        return self.wrap(ROOT, fn)(*args)

    # -- counters ------------------------------------------------------------

    def _repeat(self, name: str, key) -> None:
        seen = self._seen[name]
        box = self.repeats[name]
        box[1] += 1
        if key in seen:
            box[0] += 1
        else:
            seen.add(key)

    def _hooks(self):
        c = self.counts

        def link_before(s, K):
            self._repeat("complexes.link", (K.simplices, s))

        def subdivision_after(result, K):
            c["complexes.barycentric_subdivision.out_simplices"] += len(result.complex.simplices)

        def classify_before(s, K, k):
            self._repeat("recognition.classify_point", (K.simplices, s, k))

        def classify_after(result, s, K, k):
            if result.value == "unknown":
                c["recognition.unknown_points"] += 1

        def homology_before(K, A=None):
            excluded = A.simplices if A is not None else frozenset()
            f = Counter(s.dim for s in K.simplices if s not in excluded)
            c["homology.boundary_cells"] += sum(f[d - 1] * f[d] for d in range(1, K.dim + 1))

        def snf_before(matrix, cols=None):
            c["snf.smith_normal_form.cells"] += len(matrix) * (cols if cols is not None else
                                                               (len(matrix[0]) if matrix else 0))
            c["snf.smith_normal_form.nonzeros"] += sum(1 for row in matrix for x in row if x)

        def rejected(exc):
            if type(exc).__name__ == "PipelineError":
                c["pipeline.rejections"] += 1

        def load_after(result, path):
            c["cli.bytes_read"] += os.path.getsize(path)

        def emit_after(result, payload, out=None):
            if out:
                c["serialize.cert_bytes"] += os.path.getsize(out)

        return {
            "complexes.link": (link_before, None, None),
            "complexes.barycentric_subdivision": (None, subdivision_after, None),
            "recognition.classify_point": (classify_before, classify_after, None),
            "homology.homology": (homology_before, None, None),
            "snf.smith_normal_form": (snf_before, None, None),
            "pipeline.psi": (None, None, rejected),
            "pipeline.verify_bordism_certificate": (None, None, rejected),
            "serialize.parse": (None, load_after, None),
            "serialize.emit": (None, emit_after, None),
        }

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "circuitsmith" or name.startswith("circuitsmith.")) and m is not None]
        hooks = self._hooks()
        targets: dict[int, object] = {}
        for name, (module, attr) in SPANS.items():
            fn = getattr(importlib.import_module(module), attr)
            before, after, on_error = hooks.get(name, (None, None, None))
            targets[id(fn)] = self.wrap(name, fn, before, after, on_error)
        serialize = importlib.import_module("circuitsmith.serialize")
        for attr, fn in vars(serialize).items():
            if callable(fn) and getattr(fn, "__module__", None) == serialize.__name__:
                if attr.endswith(_PARSE_SUFFIX):
                    targets.setdefault(id(fn), self.wrap("serialize.parse", fn))
                elif attr.endswith(_EMIT_SUFFIX) or attr == "dumps":
                    targets.setdefault(id(fn), self.wrap("serialize.emit", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        simplex = importlib.import_module("circuitsmith.complexes").Simplex
        validate = simplex.__post_init__
        box = self._validations
        paused = self._paused

        def counted(s):
            if not paused[0]:
                box[0] += 1
            validate(s)

        self._patches.append((simplex, "__post_init__", validate))
        simplex.__post_init__ = counted

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        m: dict[str, float] = {}
        for name in SPANS:
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.self_s"] = self.self_s[name]
        m[f"{ROOT}.self_s"] = self.self_s[ROOT]
        m.update({name: self.counts[name] for name in COUNTERS})
        m["complexes.simplex_validations"] = self._validations[0]
        for name in REPEATS:
            hits, total = self.repeats[name]
            m[f"{name}.repeat_share"] = hits / total if total else 0.0
        m["trace.hook_s"] = self.self_s[HOOK]
        m["trace.self_sum_share"] = sum(self.self_s.values()) / wall_s if wall_s else 0.0
        return m
