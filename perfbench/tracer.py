"""Per-layer spans for qcrsim, recorded from outside the package.

``Tracer.install`` wraps every public function of the traced layer
modules and rebinds every module global of the ``qcrsim`` package that
refers to one of them.  Patching only the defining module would miss
most calls: ``cli``, ``dynamics``, ``otto`` and ``calibrate`` import
layer functions by name, while ``Trajectory.temperatures`` reaches
``thermometry.fit_gibbs`` through the module attribute.

Each call becomes one span ``[name, start, end, parent, run_id, info]``
kept in memory; ``parent`` is the index of the enclosing span (or None)
and ``info`` holds the work counts a few layers report.  ``layer_metrics``
turns the span list into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

#: Modules whose public functions are wrapped.
LAYERS = ("qcr", "dynamics", "readout", "thermometry", "otto")

#: Name of the span around one whole CLI invocation.
CLI = "cli"


def _rates_info(args, result):
    # Rates are linear in kappa_eff, so a table is distinct by everything
    # except it: (system, junction, purcell filter, |V|).
    key = repr(
        (args["system"], args["junction"], args["coupling"].purcell_filter,
         abs(float(args["v"])))
    )
    return {"key": hashlib.sha1(key.encode()).hexdigest()}


def _correction_info(args, result):
    model = args["model"]
    raw = np.asarray(model.means).tobytes() + np.asarray(model.covariances).tobytes()
    return {"key": hashlib.sha1(raw).hexdigest()}


def _evolve_info(args, result):
    t_end = args["t_end"]
    return {"sim_ns": float(args["pulse"].duration if t_end is None else t_end)}


#: Work counts taken from the bound arguments and the result of a call.
INFO = {
    "qcr.transition_rates": _rates_info,
    "readout.correction_matrix": _correction_info,
    "readout.fit_gmm": lambda args, result: {"em_iters": int(result.n_iter)},
    "readout.synthesize_shots": lambda args, result: {"shots": int(args["n_shots"])},
    "dynamics.evolve": _evolve_info,
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, run_id: str = "0"):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        info = INFO.get(name)
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = info(bound.arguments, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the layer functions everywhere they are bound; return the
        number of bindings replaced."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qcrsim.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qcrsim" or mod_name.startswith("qcrsim.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        return len(self._patches)

    def uninstall(self) -> None:
        """Put every original function back where it was bound."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _outermost(spans, name):
    """Spans called ``name`` with no enclosing span of the same name."""
    out = []
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out.append(span)
    return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(spans, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (without ``trace.overhead_s``)."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    keys: dict[str, set] = {}
    totals: dict[str, float] = {}
    for span, s in zip(spans, own):
        name, info = span[0], span[5] or {}
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        if "key" in info:
            keys.setdefault(name, set()).add(info["key"])
        for field, value in info.items():
            if field != "key":
                totals[f"{name}.{field}"] = totals.get(f"{name}.{field}", 0) + value

    def inclusive(name):
        return sum(span[2] - span[1] for span in _outermost(spans, name))

    evolve_s = inclusive("dynamics.evolve")
    sim_ns = totals.get("dynamics.evolve.sim_ns", 0.0)
    return {
        "qcr.transition_rates.calls": calls.get("qcr.transition_rates", 0),
        "qcr.transition_rates.distinct": len(keys.get("qcr.transition_rates", ())),
        "qcr.transition_rates.s": inclusive("qcr.transition_rates"),
        "qcr.tunnel_spectral_fn.calls": calls.get("qcr.tunnel_spectral_fn", 0),
        "qcr.tunnel_spectral_fn.s": inclusive("qcr.tunnel_spectral_fn"),
        "dynamics.evolve.calls": calls.get("dynamics.evolve", 0),
        "dynamics.evolve.self_s": self_s.get("dynamics.evolve", 0.0),
        "dynamics.propagate.calls": calls.get("dynamics.propagate", 0),
        "dynamics.propagate.s": inclusive("dynamics.propagate"),
        "dynamics.sim_ns": sim_ns,
        "dynamics.host_s_per_sim_us": evolve_s / (sim_ns / 1e3) if sim_ns else 0.0,
        "readout.correction_matrix.calls": calls.get("readout.correction_matrix", 0),
        "readout.correction_matrix.distinct": len(keys.get("readout.correction_matrix", ())),
        "readout.correction_matrix.s": inclusive("readout.correction_matrix"),
        "readout.estimate_populations.self_s": self_s.get("readout.estimate_populations", 0.0),
        "readout.fit_gmm.calls": calls.get("readout.fit_gmm", 0),
        "readout.fit_gmm.em_iters": totals.get("readout.fit_gmm.em_iters", 0),
        "readout.fit_gmm.s": inclusive("readout.fit_gmm"),
        "readout.synthesize_shots.shots": totals.get("readout.synthesize_shots.shots", 0),
        "readout.synthesize_shots.s": inclusive("readout.synthesize_shots"),
        "thermometry.fit_gibbs.calls": calls.get("thermometry.fit_gibbs", 0),
        "thermometry.fit_gibbs.s": inclusive("thermometry.fit_gibbs"),
        "thermometry.fit_saturation.calls": calls.get("thermometry.fit_saturation", 0),
        "thermometry.fit_saturation.s": inclusive("thermometry.fit_saturation"),
        "otto.run_cycle.self_s": self_s.get("otto.run_cycle", 0.0),
        "cli.self_s": self_s.get(CLI, 0.0),
        "cli.bytes_written": bytes_written,
    }
