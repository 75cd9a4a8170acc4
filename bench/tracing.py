"""Per-layer spans recorded from outside the library.

`Tracer.installed()` replaces every public function of the matrixwell
modules with a timing wrapper, in the defining module and in every module
that imported it by name (so `dynamics` calling `build_position` opens an
`operators` span), and routes each module's `integrate.quad` through a
counter.  A span's self time is its duration minus the time of the spans
it opened, so the `_s` metrics below add up instead of overlapping.
Spans are kept in memory as per-function totals and read once per pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("well", "operators", "dynamics", "fock", "reports", "cli")
CLI_SPANS = ("parse_config", "run")  # cli.main is the caller, not a layer

# metric name -> (quantity, spans summed); `amount` is rows returned for the
# series reports, bytes for rendered text and for the entries of returned
# operator matrices.
_BUILD = ("operators.build_position", "operators.build_momentum", "operators.build_hamiltonian")
_PROJECTION = ("dynamics.gaussian_packet", "dynamics.project_wavefunction", "dynamics.projection_capture")
_SERIES = ("dynamics.spread_report", "dynamics.ehrenfest_report")
_LADDER = ("fock.annihilator", "fock.creator", "fock.number_operator")
_RENDER = ("reports.render_csv", "reports.render_json")
LAYER_METRICS = {
    "cli.parse_config_s": ("self_s", ("cli.parse_config",)),
    "cli.run_self_s": ("self_s", ("cli.run",)),
    "cli.quad_calls": ("calls", ("cli.quad",)),
    "operators.build_s": ("self_s", _BUILD),
    "operators.build_calls": ("calls", _BUILD),
    "operators.commutator_report_s": (
        "self_s",
        ("operators.canonical_commutator_report", "operators.commutator", "operators.commutator_trace"),
    ),
    "operators.evolve_s": ("self_s", ("operators.evolve",)),
    "operators.evolve_calls": ("calls", ("operators.evolve",)),
    "operators.matrix_bytes": ("amount", "operators."),
    "dynamics.projection_s": ("self_s", _PROJECTION),
    "dynamics.quad_calls": ("calls", ("dynamics.quad",)),
    "dynamics.series_s": ("self_s", _SERIES),
    "dynamics.series_rows": ("amount", _SERIES),
    "dynamics.dispersion_s": ("self_s", ("dynamics.dispersion", "dynamics.expectation")),
    "fock.algebra_s": ("self_s", ("fock.check_algebra",)),
    "fock.ladder_s": ("self_s", _LADDER),
    "fock.ladder_calls": ("calls", _LADDER),
    "fock.matrix_bytes": ("amount", "fock."),
    "fock.density_s": (
        "self_s",
        ("fock.density_expectation", "fock.heisenberg_field", "fock.field_operator"),
    ),
    "fock.density_calls": ("calls", ("fock.density_expectation",)),
    "well.eigenfunction_calls": ("calls", ("well.eigenfunction",)),
    "reports.render_s": ("self_s", _RENDER),
    "reports.bytes_out": ("amount", _RENDER),
    "reports.write_s": ("self_s", ("reports.atomic_write_text",)),
}


def _amount(result) -> int:
    entries = getattr(result, "entries", None)
    if isinstance(entries, np.ndarray):
        return entries.nbytes
    if isinstance(result, str):
        return len(result.encode("utf-8"))
    return int(getattr(result, "nrows", 0))


class _Totals:
    __slots__ = ("calls", "self_s", "amount")

    def __init__(self):
        self.calls, self.self_s, self.amount = 0, 0.0, 0


class _CountingIntegrate:
    """Stands in for `scipy.integrate` in one module and counts its quad calls."""

    def __init__(self, integrate, totals: _Totals):
        self._integrate, self._totals = integrate, totals

    def quad(self, *args, **kwargs):
        self._totals.calls += 1
        return self._integrate.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._integrate, name)


class Tracer:
    def __init__(self):
        self.totals: dict[str, _Totals] = {}
        self._open: list[list[float]] = []  # child time of each open span

    def reset(self) -> None:
        for t in self.totals.values():
            t.calls, t.self_s, t.amount = 0, 0.0, 0

    def _span(self, key: str, fn):
        totals = self.totals.setdefault(key, _Totals())
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                totals.calls += 1
                totals.self_s += elapsed - children[0]
            totals.amount += _amount(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        import matrixwell

        modules = {name: importlib.import_module(f"matrixwell.{name}") for name in MODULES}
        wrappers = {}
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and (name != "cli" or attr in CLI_SPANS)
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._span(f"{name}.{attr}", obj)
        patched = []
        for mod in (*modules.values(), matrixwell):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for name, mod in modules.items():
            if hasattr(mod, "integrate"):
                totals = self.totals.setdefault(f"{name}.quad", _Totals())
                patched.append((mod, "integrate", mod.integrate))
                mod.integrate = _CountingIntegrate(mod.integrate, totals)
        try:
            yield self
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)

    def metrics(self) -> dict:
        """Per-layer values accumulated since the last reset."""
        out = {}
        for metric, (quantity, spans) in LAYER_METRICS.items():
            if isinstance(spans, str):  # every span of one module
                spans = [k for k in self.totals if k.startswith(spans)]
            zero = 0.0 if quantity == "self_s" else 0
            out[metric] = sum((getattr(self.totals[k], quantity) for k in spans if k in self.totals), zero)
        return out
