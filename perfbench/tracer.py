"""Layer spans for gspencer, recorded from outside the package.

``Tracer.install()`` replaces every binding of the functions in ``TARGETS``
with a wrapper: each module global that holds the function (so
``gspencer.spencer.kernel_of_rows`` and ``gspencer.prolong.kernel_of_rows``
are both covered) and, for methods, the class attribute.  Wrappers sit
outside the ``lru_cache``s, so ``cache_info()`` deltas give hits and misses.
``uninstall()`` puts every original object back.  Untraced runs never call
``install()``.

Spans are kept in memory as ``[name, start, end, parent, info]`` and reduced
to metrics when the run ends.  The span clock excludes the tracer's own
bookkeeping (argument scans, fingerprints), so span times measure the library;
the cost of the wrappers themselves shows in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, key, module, attribute); the span name is "<layer>.<key>".
TARGETS = (
    ("linalg", "kernel", "gspencer.linalg", "kernel_of_rows"),
    ("linalg", "kernel", "gspencer.linalg", "kernel_basis"),
    ("linalg", "subspace", "gspencer.linalg", "Subspace.from_vectors"),
    ("linalg", "coords", "gspencer.linalg", "Subspace.coordinates"),
    ("linalg", "solve", "gspencer.linalg", "solve_particular"),
    ("linalg", "solve", "gspencer.linalg", "solve_linear"),
    ("linalg", "complement", "gspencer.linalg", "deterministic_complement"),
    ("algebra", "bracket", "gspencer.algebra", "GradedLieAlgebra.bracket"),
    ("prolong", "insertion", "gspencer.prolong", "insertion_bracket"),
    ("prolong", "step", "gspencer.prolong", "prolong_step"),
    ("prolong", "build", "gspencer.prolong", "build_graded_algebra"),
    ("models", "space_form", "gspencer.models", "space_form_algebra"),
    ("models", "conformal", "gspencer.models", "conformal_algebra"),
    ("models", "cr_algebra", "gspencer.models", "cr_algebra"),
    ("spencer", "complex", "gspencer.spencer", "standard_complex"),
    ("spencer", "cohomology", "gspencer.spencer", "cohomology_dims"),
    ("spencer", "coboundary", "gspencer.spencer", "is_coboundary"),
    ("spencer", "class_rep", "gspencer.spencer", "class_representative"),
    ("spencer", "d", "gspencer.spencer", "spencer_d"),
    ("obstruction", "solve_next", "gspencer.obstruction", "solve_next"),
    ("obstruction", "curvature", "gspencer.obstruction", "total_curvature"),
    ("obstruction", "solve_to_top", "gspencer.obstruction", "solve_to_top"),
)

LAYERS = ("linalg", "algebra", "prolong", "models", "spencer", "obstruction")
MODEL_CACHES = ("models.space_form", "models.conformal", "models.cr_algebra")

# Every per-layer metric with its unit, in the order it is reported.
LAYER_METRICS = (
    ("linalg.kernel_calls", "count"), ("linalg.kernel_s", "s"),
    ("linalg.subspace_calls", "count"), ("linalg.subspace_s", "s"),
    ("linalg.elim_rows_total", "count"), ("linalg.elim_cols_max", "count"),
    ("linalg.elim_nnz_in", "count"), ("linalg.max_entry_bits", "bits"),
    ("linalg.coords_calls", "count"), ("linalg.coords_s", "s"),
    ("linalg.solve_calls", "count"), ("linalg.solve_s", "s"),
    ("linalg.complement_calls", "count"), ("linalg.complement_s", "s"),
    ("linalg.solve_distinct_ratio", "1"), ("linalg.complement_distinct_ratio", "1"),
    ("linalg.span_s", "s"), ("linalg.self_s", "s"),
    ("algebra.bracket_calls", "count"), ("algebra.bracket_s", "s"),
    ("algebra.span_s", "s"), ("algebra.self_s", "s"),
    ("prolong.insertion_calls", "count"), ("prolong.insertion_s", "s"),
    ("prolong.insertion_zero_ratio", "1"),
    ("prolong.step_calls", "count"), ("prolong.step_s", "s"),
    ("prolong.build_s", "s"), ("prolong.build_self_s", "s"),
    ("prolong.layer_nnz_avg", "count"),
    ("prolong.span_s", "s"), ("prolong.self_s", "s"),
    ("models.cr_algebra_s", "s"), ("models.conformal_s", "s"),
    ("models.space_form_s", "s"),
    ("models.cache_hits", "count"), ("models.cache_misses", "count"),
    ("models.span_s", "s"), ("models.self_s", "s"),
    ("spencer.complex_calls", "count"), ("spencer.complex_s", "s"),
    ("spencer.complex_cache_hits", "count"), ("spencer.complex_cache_misses", "count"),
    ("spencer.cohomology_calls", "count"), ("spencer.cohomology_s", "s"),
    ("spencer.cohomology_self_s", "s"),
    ("spencer.max_operator_rows", "count"), ("spencer.max_operator_cols", "count"),
    ("spencer.coboundary_calls", "count"), ("spencer.coboundary_s", "s"),
    ("spencer.coboundary_self_s", "s"),
    ("spencer.class_rep_calls", "count"), ("spencer.class_rep_s", "s"),
    ("spencer.d_calls", "count"), ("spencer.d_s", "s"),
    ("spencer.span_s", "s"), ("spencer.self_s", "s"),
    ("obstruction.solve_next_calls", "count"), ("obstruction.solve_next_s", "s"),
    ("obstruction.solve_next_self_s", "s"),
    ("obstruction.curvature_calls", "count"), ("obstruction.curvature_s", "s"),
    ("obstruction.solved", "count"), ("obstruction.obstructed", "count"),
    ("obstruction.solved_ratio", "1"),
    ("obstruction.span_s", "s"), ("obstruction.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "1"), ("trace.wall_s", "s"), ("trace.spans", "count"),
)


def _resolve(module_name: str, attr: str):
    """(owner, name, original descriptor, callable) for a TARGETS entry."""
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[name] if path else getattr(owner, name)
    func = raw.__func__ if isinstance(raw, classmethod) else raw
    return owner, name, raw, func


def _fraction_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Wraps the layer functions and turns the recorded spans into metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._excluded = 0.0       # bookkeeping time removed from the span clock
        self._recording = False
        self._window_start = 0.0
        self.recorded_s = 0.0      # span-clock time spent inside recording windows
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[object, object]] = {}
        self._fingerprints: dict[int, tuple[object, int]] = {}
        self.counters = {
            "elim_rows_total": 0, "elim_cols_max": 0, "elim_nnz_in": 0,
            "max_entry_bits": 0, "solve_keys": set(), "complement_keys": set(),
            "insertion_zero": 0, "layer_vectors": 0, "layer_nnz": 0,
            "max_operator_rows": 0, "max_operator_cols": 0,
            "solved": 0, "obstructed": 0,
        }

    # -- clock and recording windows --------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def start(self) -> None:
        self._recording = True
        self._window_start = self.now()

    def stop(self) -> None:
        self.recorded_s += self.now() - self._window_start
        self._recording = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "linalg.kernel": self._after_elimination,
            "linalg.subspace": self._after_elimination,
            "linalg.solve": self._after_solve,
            "linalg.complement": self._after_complement,
            "prolong.insertion": self._after_insertion,
            "prolong.step": self._after_step,
            "spencer.cohomology": self._after_cohomology,
            "obstruction.solve_next": self._after_solve_next,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gspencer" or n.startswith("gspencer.")) and m is not None]
        for layer, key, module_name, attr in TARGETS:
            name = f"{layer}.{key}"
            owner, attr_name, raw, func = _resolve(module_name, attr)
            cached = hasattr(func, "cache_info")
            if cached:
                self._caches[name] = (func, func.cache_info())
            wrapper = self._wrap(name, func, hooks.get(name), cached)
            if isinstance(raw, classmethod):
                self._patch(owner, attr_name, raw, classmethod(wrapper))
            elif owner is sys.modules[module_name]:
                for mod in modules:
                    for gname, value in list(vars(mod).items()):
                        if value is func:
                            self._patch(mod, gname, func, wrapper)
            else:
                self._patch(owner, attr_name, raw, wrapper)

    def _patch(self, owner, name, original, replacement) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, name, func, hook, cached):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return func(*args, **kwargs)
            b0 = time.perf_counter()
            if name == "linalg.subspace" and len(args) >= 3:
                # materialize a generator argument so the hook can read it
                args = args[:2] + (list(args[2]),) + args[3:]
            misses = func.cache_info().misses if cached else 0
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            b1 = time.perf_counter()
            tracer._excluded += b1 - b0
            span[1] = b1 - tracer._excluded
            try:
                result = func(*args, **kwargs)
            finally:
                e0 = time.perf_counter()
                span[2] = e0 - tracer._excluded
                tracer._stack.pop()
            if cached:
                span[4] = func.cache_info().misses > misses
            if hook is not None:  # with recording off, so library calls in it leave no spans
                tracer._recording = False
                hook(args, result)
                tracer._recording = True
            tracer._excluded += time.perf_counter() - e0
            return result

        return wrapper

    # -- counters recorded at the boundaries -------------------------------

    def _after_elimination(self, args, result) -> None:
        c = self.counters
        if hasattr(args[0], "data"):            # kernel_basis(matrix)
            rows, ncols = args[0].data, args[0].cols
        elif isinstance(args[0], type):         # Subspace.from_vectors(cls, dim, vectors)
            ncols, rows = args[1], args[2]
        else:                                   # kernel_of_rows(rows, ncols)
            rows, ncols = args[0], args[1]
        c["elim_rows_total"] += len(rows)
        c["elim_cols_max"] = max(c["elim_cols_max"], ncols)
        c["elim_nnz_in"] += sum(1 for row in rows for x in row if x)
        bits = c["max_entry_bits"]
        for row in result.basis.data:
            for x in row:
                if x:
                    bits = max(bits, _fraction_bits(x))
        c["max_entry_bits"] = bits

    def _fingerprint(self, obj) -> int:
        """Content hash of obj, memoized per object (held, so its id stays unique)."""
        seen = self._fingerprints.get(id(obj))
        if seen is None:
            data = obj.data if hasattr(obj, "data") else obj
            seen = (obj, hash(tuple(tuple(row) for row in data)))
            self._fingerprints[id(obj)] = seen
        return seen[1]

    def _after_solve(self, args, result) -> None:
        self.counters["solve_keys"].add(self._fingerprint(args[0]))

    def _after_complement(self, args, result) -> None:
        self.counters["complement_keys"].add(
            (self._fingerprint(args[0].basis), self._fingerprint(args[1].basis)))

    def _after_insertion(self, args, result) -> None:
        if not any(result):
            self.counters["insertion_zero"] += 1

    def _after_step(self, args, result) -> None:
        c = self.counters
        c["layer_vectors"] += result.dim
        c["layer_nnz"] += sum(1 for row in result.basis.data for x in row if x)

    def _after_cohomology(self, args, result) -> None:
        """Largest operator matrix, by entries: d from (p, q) for Z, into (p, q) for B."""
        from gspencer.errors import InputError, PreconditionError
        from gspencer.spencer import space_dimension
        cplx, p, q, r = args[:4]
        shapes = []
        try:
            if p >= 1:
                shapes.append((space_dimension(cplx, p - 1, q + 1, r), result.dim_space))
            if q >= 1:
                shapes.append((result.dim_space, space_dimension(cplx, p + 1, q - 1, r)))
        except (InputError, PreconditionError):
            pass
        c = self.counters
        for rows, cols in shapes:
            if rows * cols > c["max_operator_rows"] * c["max_operator_cols"]:
                c["max_operator_rows"], c["max_operator_cols"] = rows, cols

    def _after_solve_next(self, args, result) -> None:
        from gspencer.obstruction import ObstructionCertificate
        key = "obstructed" if isinstance(result, ObstructionCertificate) else "solved"
        self.counters[key] += 1

    # -- reduction to metrics ----------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        n = len(spans)
        child_sum = [0.0] * n
        for s in spans:
            if s[3] >= 0:
                child_sum[s[3]] += s[2] - s[1]

        def has_ancestor(i: int, pred) -> bool:
            p = spans[i][3]
            while p >= 0:
                if pred(spans[p][0]):
                    return True
                p = spans[p][3]
            return False

        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        selfs: dict[str, float] = {}
        layer_span = dict.fromkeys(LAYERS, 0.0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        top = 0.0
        for i, (name, start, end, parent, miss) in enumerate(spans):
            dur = end - start
            own = dur - child_sum[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            if parent < 0:
                top += dur
            if not has_ancestor(i, lambda other: other.split(".", 1)[0] == layer):
                layer_span[layer] += dur
            if miss is False:  # an lru_cache hit: no work was done
                continue
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + own
            if not has_ancestor(i, lambda other: other == name):
                incl[name] = incl.get(name, 0.0) + dur

        def cache_delta(name: str) -> tuple[int, int]:
            if name not in self._caches:
                return 0, 0
            func, before = self._caches[name]
            after = func.cache_info()
            return after.hits - before.hits, after.misses - before.misses

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c = self.counters
        m: dict[str, float] = {}
        for key in ("kernel", "subspace", "coords", "solve", "complement"):
            m[f"linalg.{key}_calls"] = calls.get(f"linalg.{key}", 0)
            m[f"linalg.{key}_s"] = incl.get(f"linalg.{key}", 0.0)
        for key in ("elim_rows_total", "elim_cols_max", "elim_nnz_in", "max_entry_bits"):
            m[f"linalg.{key}"] = c[key]
        m["linalg.solve_distinct_ratio"] = ratio(len(c["solve_keys"]),
                                                 calls.get("linalg.solve", 0))
        m["linalg.complement_distinct_ratio"] = ratio(len(c["complement_keys"]),
                                                      calls.get("linalg.complement", 0))
        m["algebra.bracket_calls"] = calls.get("algebra.bracket", 0)
        m["algebra.bracket_s"] = incl.get("algebra.bracket", 0.0)
        for key in ("insertion", "step"):
            m[f"prolong.{key}_calls"] = calls.get(f"prolong.{key}", 0)
            m[f"prolong.{key}_s"] = incl.get(f"prolong.{key}", 0.0)
        m["prolong.insertion_zero_ratio"] = ratio(c["insertion_zero"],
                                                  calls.get("prolong.insertion", 0))
        m["prolong.build_s"] = incl.get("prolong.build", 0.0)
        m["prolong.build_self_s"] = selfs.get("prolong.build", 0.0)
        m["prolong.layer_nnz_avg"] = ratio(c["layer_nnz"], c["layer_vectors"])
        for key in ("cr_algebra", "conformal", "space_form"):
            m[f"models.{key}_s"] = incl.get(f"models.{key}", 0.0)
        deltas = [cache_delta(name) for name in MODEL_CACHES]
        m["models.cache_hits"] = sum(h for h, _ in deltas)
        m["models.cache_misses"] = sum(x for _, x in deltas)
        m["spencer.complex_calls"] = calls.get("spencer.complex", 0)
        m["spencer.complex_s"] = incl.get("spencer.complex", 0.0)
        hits, misses = cache_delta("spencer.complex")
        m["spencer.complex_cache_hits"] = hits
        m["spencer.complex_cache_misses"] = misses
        for key in ("cohomology", "coboundary", "class_rep", "d"):
            m[f"spencer.{key}_calls"] = calls.get(f"spencer.{key}", 0)
            m[f"spencer.{key}_s"] = incl.get(f"spencer.{key}", 0.0)
        m["spencer.cohomology_self_s"] = selfs.get("spencer.cohomology", 0.0)
        m["spencer.coboundary_self_s"] = selfs.get("spencer.coboundary", 0.0)
        m["spencer.max_operator_rows"] = c["max_operator_rows"]
        m["spencer.max_operator_cols"] = c["max_operator_cols"]
        for key in ("solve_next", "curvature"):
            m[f"obstruction.{key}_calls"] = calls.get(f"obstruction.{key}", 0)
            m[f"obstruction.{key}_s"] = incl.get(f"obstruction.{key}", 0.0)
        m["obstruction.solve_next_self_s"] = selfs.get("obstruction.solve_next", 0.0)
        m["obstruction.solved"] = c["solved"]
        m["obstruction.obstructed"] = c["obstructed"]
        m["obstruction.solved_ratio"] = ratio(c["solved"], c["solved"] + c["obstructed"])
        for layer in LAYERS:
            m[f"{layer}.span_s"] = layer_span[layer]
            m[f"{layer}.self_s"] = layer_self[layer]
        m["cli.self_s"] = self.recorded_s - top
        m["trace.wall_s"] = self.recorded_s
        m["trace.spans"] = n
        return m
