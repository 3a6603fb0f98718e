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
    """Arguments of every tunnel_spectral_fn call, from a cleared rate cache.

    The cache is cleared again afterwards, so rows computed under the
    patched function never reach another test.
    """
    from qcrsim import qcr

    calls = []
    spectral_fn = qcr.tunnel_spectral_fn

    def counted(e, v, junction):
        calls.append((e, v, junction))
        return spectral_fn(e, v, junction)

    qcr._spectral_rows.cache_clear()
    monkeypatch.setattr(qcr, "tunnel_spectral_fn", counted)
    yield calls
    qcr._spectral_rows.cache_clear()
