"""Names that the out-of-package tracer (``perfbench/tracer.py``) binds.

The tracer wraps the public functions of the layer modules, names each
span ``<module>.<function>``, and reads some arguments and results by
name to count work.  A rename would not fail a traced run loudly: the
per-layer counts would go missing or the run would stop.  These pins
make such a rename fail the suite.
"""

import importlib
import inspect

import pytest

from qcrsim import CouplingSpec, GmmModel

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
