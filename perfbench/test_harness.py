"""Fast self-test of the benchmark harness.

    python3 -m pytest perfbench -q

Checks that the tracer rebinds and restores every binding of the layer
functions, that its counts are exact on a small CLI run, and that the
self times it derives add up to no more than the traced wall time.
"""

import inspect
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import qcrsim.cli  # noqa: E402
import qcrsim.thermometry  # noqa: E402
from run import PER_LAYER  # noqa: E402
from tracer import CLI, LAYERS, Tracer, layer_metrics, self_times  # noqa: E402


def qcrsim_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "qcrsim" or name.startswith("qcrsim.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_install_rebinds_everywhere_and_uninstall_restores():
    before = qcrsim_bindings()
    originals = {
        id(value) for (name, attr), value in before.items()
        if name in {f"qcrsim.{layer}" for layer in LAYERS}
        and inspect.isfunction(value) and value.__module__ == name
        and not attr.startswith("_")
    }
    tracer = Tracer()
    assert tracer.install() > len(originals)
    try:
        during = qcrsim_bindings()
        assert not [key for key, value in during.items() if id(value) in originals]
        assert qcrsim.cli.fit_gibbs is qcrsim.thermometry.fit_gibbs
        assert qcrsim.cli.fit_gibbs.__wrapped__ is before[("qcrsim.cli", "fit_gibbs")]
    finally:
        tracer.uninstall()
    after = qcrsim_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def traced_cli(tmp_path, *argvs):
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for argv in argvs:
            with tracer.span(CLI):
                assert qcrsim.cli.main([*argv, "--outdir", str(tmp_path)]) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer.spans, wall


def test_counts_exact_on_small_run(tmp_path):
    spans, _ = traced_cli(
        tmp_path,
        ["rates", "--bias", "0.0", "1.2", "-1.2"],
        ["evolve", "--amplitude", "1.2", "--duration", "10", "--sample-every", "50"],
        ["shots", "--n", "100"],
    )
    m = layer_metrics(spans, bytes_written=0)
    assert m["qcr.transition_rates.calls"] == 4  # 3 biases + 1 for the pulse
    assert m["qcr.transition_rates.distinct"] == 2  # |V| in {0, 1.2}
    assert m["qcr.tunnel_spectral_fn.calls"] == 4 * 2 * 5  # 5 ladder pairs
    assert m["dynamics.evolve.calls"] == 1
    assert m["dynamics.propagate.calls"] == 1
    assert m["dynamics.sim_ns"] == 10.0
    # 100 steps sampled every 50: three samples, each Gibbs-fitted through
    # Trajectory.temperatures, which looks fit_gibbs up on the module.
    assert m["thermometry.fit_gibbs.calls"] == 3
    assert m["readout.synthesize_shots.shots"] == 100
    assert m["readout.fit_gmm.calls"] == 0
    assert sum(1 for s in spans if s[0] == CLI) == 3


def test_self_times_fit_inside_traced_wall(tmp_path):
    spans, wall = traced_cli(tmp_path, ["rates", "--bias", "0.6"], ["shots", "--n", "50"])
    own = self_times(spans)
    assert min(own) >= 0.0
    m = layer_metrics(spans, bytes_written=0)
    layer_self = sum(s for span, s in zip(spans, own) if span[0] != CLI)
    assert layer_self + m["cli.self_s"] <= wall
    assert abs(layer_self + m["cli.self_s"] - sum(s[2] - s[1] for s in spans if s[3] is None)) < 1e-9


def test_tracer_provides_every_per_layer_metric():
    assert set(layer_metrics([], 0)) | {"trace.overhead_s"} == set(PER_LAYER)
