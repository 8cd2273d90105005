"""Per-layer tracing of nshom from outside the package.

Each public function is wrapped at the name its caller looks up (for example
``harness.assemble_heterogeneous_generator`` or ``integrator.lu_factor``), so
no file of the package changes. A span's name is ``<layer>.<function>``, the
layer being the nshom module that owns the call. Spans are accounted as they
close, in memory:

* ``<span>_calls``: number of calls;
* ``<span>_s``: summed duration of the span, counting nested calls of the
  same span once;
* self time: duration minus the part covered by direct child spans;
* ``<layer>.busy_s``: time during which any span of the layer is open;
* ``<layer>.self_s``: time during which the innermost open span belongs to
  the layer.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict

LAYERS = ("kernel", "cell", "effective", "integrator", "harness")


class _Proxy(types.ModuleType):
    """Module stand-in whose own attributes override those of ``base``."""

    def __init__(self, base: types.ModuleType, **overrides):
        super().__init__(base.__name__)
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._base, attr)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []   # open spans: [name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.span_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.lu_flops = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, flops=None):
        """Return ``fn`` wrapped in a span called ``name``. ``flops``, given the
        call's arguments, returns the floating-point operations to count."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flops is not None:
                self.lu_flops += flops(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._clock() - start
                self._stack.pop()
                self._close(name, layer, duration, frame[1])

        return traced

    def _close(self, name: str, layer: str, duration: float, child: float) -> None:
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if all(f[0] != name for f in self._stack):
            self.span_s[name] += duration
        if all(f[0].split(".", 1)[0] != layer for f in self._stack):
            self.busy_s[layer] += duration
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_level_s += duration

    def patch(self, module, attr: str, name: str, flops=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until ``restore``."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, flops))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def install_nshom(self) -> None:
        """Wrap the calls between nshom's layers and from the benchmark into them."""
        import numpy
        from nshom import cell, effective, harness, integrator, kernel

        # entry points the benchmark itself calls
        self.patch(harness, "prepare_experiment", "harness.prepare")
        self.patch(harness, "eps_sweep", "harness.sweep")
        self.patch(integrator, "brownian_increments", "integrator.brownian")
        self.patch(integrator, "simulate", "integrator.simulate")
        # harness -> lower layers, at the names harness imported
        self.patch(harness, "coupled_pair_error", "harness.pair")
        self.patch(harness, "solve_cell_problem", "cell.problem")
        self.patch(harness, "compute_effective_coefficients", "effective.coefficients")
        self.patch(harness, "assemble_effective_generator", "effective.generator")
        self.patch(harness, "assemble_heterogeneous_generator", "kernel.assemble")
        self.patch(harness, "brownian_increments", "integrator.brownian")
        self.patch(harness, "simulate", "integrator.simulate")
        # inside the layers
        self.patch(cell, "assemble_cell_form", "cell.form")
        # the bordered corrector solve is looked up as cell.np.linalg.solve
        solve = self.wrap("cell.solve", numpy.linalg.solve)
        self._patches.append((cell, "np", cell.np))
        cell.np = _Proxy(numpy, linalg=_Proxy(numpy.linalg, solve=solve))
        self.patch(effective, "zeta_matrix", "effective.zeta_matrix")
        self.patch(effective, "restricted_divergence_matrix", "effective.restricted_divergence")
        self.patch(effective, "assemble_heterogeneous_generator", "kernel.assemble")
        self.patch(integrator, "assemble_heterogeneous_generator", "kernel.assemble")
        self.patch(kernel, "exterior_weight", "kernel.exterior_weight")
        # complex LU: 8/3 n^3 real floating-point operations per factorization
        self.patch(integrator, "lu_factor", "integrator.lu_factor",
                   flops=lambda a, *_, **__: 8.0 / 3.0 * a.shape[0] ** 3)
        self.patch(integrator, "lu_solve", "integrator.lu_solve")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name (counts, seconds and derived ratios)."""
        c, s, own = self.calls, self.span_s, self.self_s
        m = {
            "kernel.assemble_calls": c["kernel.assemble"],
            "kernel.assemble_s": s["kernel.assemble"],
            "kernel.exterior_weight_calls": c["kernel.exterior_weight"],
            "kernel.exterior_weight_s": s["kernel.exterior_weight"],
            "cell.solve_calls": c["cell.solve"],
            "cell.solve_s": s["cell.solve"],
            "cell.form_s": s["cell.form"],
            "effective.coefficients_s": s["effective.coefficients"],
            "effective.generator_s": s["effective.generator"],
            "effective.zeta_matrix_s": s["effective.zeta_matrix"],
            "effective.restricted_divergence_s": s["effective.restricted_divergence"],
            "integrator.simulate_calls": c["integrator.simulate"],
            "integrator.simulate_s": s["integrator.simulate"],
            "integrator.step_self_s": own["integrator.simulate"],
            "integrator.brownian_s": s["integrator.brownian"],
            "integrator.lu_factor_calls": c["integrator.lu_factor"],
            "integrator.lu_factor_s": s["integrator.lu_factor"],
            "integrator.lu_solve_calls": c["integrator.lu_solve"],
            "integrator.lu_solve_s": s["integrator.lu_solve"],
            "integrator.factor_reuse": (1.0 - c["integrator.lu_factor"] / c["integrator.lu_solve"]
                                        if c["integrator.lu_solve"] else 0.0),
            "integrator.lu_factor_gflop": self.lu_flops / 1e9,
            "harness.prepare_s": s["harness.prepare"],
            "harness.pair_calls": c["harness.pair"],
            "harness.pair_s": s["harness.pair"],
            "harness.reduce_s": own["harness.pair"],
            "trace.top_level_s": self.top_level_s,
        }
        for layer in LAYERS:
            m[f"{layer}.busy_s"] = self.busy_s[layer]
            m[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                       if k.split(".", 1)[0] == layer)
        return m
