import pytest

import biheun.quantize
from biheun.heun import ode_residual
from biheun.model import quartic_roots


@pytest.fixture
def ode_residual_calls(monkeypatch) -> list[int]:
    """Count calls through the ``ode_residual`` binding the certificate uses: one item."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return ode_residual(*args)

    monkeypatch.setattr(biheun.quantize, "ode_residual", counted)
    return calls


@pytest.fixture
def turning_point_solves(monkeypatch) -> list[int]:
    """The number of rows of each stacked turning-point solve the certificate makes,
    through its ``quartic_roots`` binding: one item per solve."""
    rows: list[int] = []

    def counted(systems, eps):
        rows.append(len(systems))
        return quartic_roots(systems, eps)

    monkeypatch.setattr(biheun.quantize, "quartic_roots", counted)
    return rows
