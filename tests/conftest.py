import pytest

from qcrsim import CouplingSpec, JunctionSpec, SystemSpec, TransmonSpec


@pytest.fixture(scope="session")
def system():
    return SystemSpec()


@pytest.fixture(scope="session")
def junction():
    return JunctionSpec()


@pytest.fixture(scope="session")
def coupling():
    return CouplingSpec()


@pytest.fixture(scope="session")
def transmon():
    return TransmonSpec()


@pytest.fixture
def spectral_calls(monkeypatch):
    """(E, V, junction) of every element tunnel_spectral_fn integrates.

    A batched call records one entry per element of the broadcast of its
    e and v, with E and V as floats.
    """
    import numpy as np

    from qcrsim import qcr

    calls = []
    spectral_fn = qcr.tunnel_spectral_fn

    def counted(e, v, junction):
        pairs = zip(*(a.ravel().tolist() for a in np.broadcast_arrays(e, v)))
        calls.extend((x, y, junction) for x, y in pairs)
        return spectral_fn(e, v, junction)

    monkeypatch.setattr(qcr, "tunnel_spectral_fn", counted)
    return calls


@pytest.fixture
def integral_batches(monkeypatch):
    """Number of integrals in each batch the tunnelling quadrature runs:
    one entry per tunnel_spectral_fn call, counting each distinct |s|
    once."""
    from qcrsim import qcr

    batches = []
    gauss_kronrod = qcr._gauss_kronrod

    def counted(integrand, knots, where):
        batches.append(len(knots))
        return gauss_kronrod(integrand, knots, where)

    monkeypatch.setattr(qcr, "_gauss_kronrod", counted)
    return batches
