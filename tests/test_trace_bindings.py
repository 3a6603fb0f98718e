"""Names that the out-of-package tracer (``perfbench/tracer.py``) binds.

The tracer wraps the public functions of the layer modules, names each
span ``<module>.<function>``, and reads some arguments and results by
name to count work.  A rename would not fail a traced run loudly: the
per-layer counts would go missing or the run would stop.  These pins
make such a rename fail the suite.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import math
from pathlib import Path

import pytest

from qcrsim import CouplingSpec, GmmModel
from qcrsim.cli import PIPELINE_PRESETS, main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

#: Span name -> the parameters the tracer reads from the bound call.
TRACED = {
    "qcr.transition_rates": ("system", "junction", "coupling", "v"),
    "qcr.tunnel_spectral_fn": (),
    "dynamics.evolve": ("pulse", "t_end"),
    "dynamics.propagate": (),
    "readout.correction_matrix": ("model",),
    "readout.synthesize_shots": ("n_shots",),
    "readout.fit_gmm": (),
    "readout.estimate_populations": (),
    "thermometry.fit_gibbs": (),
    "thermometry.fit_saturation": (),
    "otto.run_cycle": (),
}


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_parameters(name):
    layer, attr = name.split(".")
    function = getattr(importlib.import_module(f"qcrsim.{layer}"), attr)
    assert inspect.isfunction(function)
    assert function.__module__ == f"qcrsim.{layer}"
    assert set(TRACED[name]) <= set(inspect.signature(function).parameters)


@pytest.mark.parametrize(
    "cls, name", [(CouplingSpec, "purcell_filter"), (GmmModel, "n_iter")]
)
def test_traced_fields(cls, name):
    assert name in inspect.signature(cls).parameters


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("preset", sorted(PIPELINE_PRESETS))
def test_preset_runs_traced(tmp_path, tracer_module, preset):
    """Every preset runs to exit 0 with the tracer's wrappers installed,
    which read the traced arguments (a scalar bias ``v`` among them), and
    its spans give the per-layer metrics."""
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["pipeline", preset, "--seed", "0", "--outdir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer_module.layer_metrics(tracer.spans, 0)
    assert all(math.isfinite(value) for value in metrics.values())
