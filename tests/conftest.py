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
    """(e, v, junction) of every energy tunnel_spectral_fn integrates.

    A batched call records one entry per energy.
    """
    import numpy as np

    from qcrsim import qcr

    calls = []
    spectral_fn = qcr.tunnel_spectral_fn

    def counted(e, v, junction):
        calls.extend((float(x), v, junction) for x in np.ravel(e))
        return spectral_fn(e, v, junction)

    monkeypatch.setattr(qcr, "tunnel_spectral_fn", counted)
    return calls
