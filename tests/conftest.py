import pytest

import biheun.quantize
from biheun.heun import ode_residual
from biheun.model import largest_root_moduli


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
    through its ``largest_root_moduli`` binding: one item per solve."""
    rows: list[int] = []

    def counted(systems, eps):
        rows.append(len(systems))
        return largest_root_moduli(systems, eps)

    monkeypatch.setattr(biheun.quantize, "largest_root_moduli", counted)
    return rows
