import pytest

from elastic_ssm import linalg


@pytest.fixture
def fft_path(monkeypatch):
    """Run the spectral branch on its FFT path at every sequence length, so
    the short sequences most tests use exercise it as well as the direct path
    they take by default."""
    monkeypatch.setattr(linalg, "DIRECT_MAX_LEN", 0)
