import pytest

import biheun.quantize
from biheun.heun import ode_residual


@pytest.fixture
def ode_residual_calls(monkeypatch) -> list[int]:
    """Count calls through the ``ode_residual`` binding the certificate uses: one item."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return ode_residual(*args)

    monkeypatch.setattr(biheun.quantize, "ode_residual", counted)
    return calls
