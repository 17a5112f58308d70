import sys
from collections import Counter

import numpy as np
import pytest

from switchbeam import schedule_design
from switchbeam.array_model import C_VACUUM, ArrayConfig
from switchbeam.schedule_design import design_schedule

THETA_20 = np.deg2rad(20.0)

#: Duty-cycle-ratio grid used throughout: 0, -3, -6, -9 dB.
ALPHA_GRID = (1.0, 10.0 ** -0.3, 10.0 ** -0.6, 10.0 ** -0.9)


def reference_config(n_elements=5, path_count=4, spacing_wl=0.5, f0=77e9, fp=1e9):
    """The standard five-element, half-wavelength, 77 GHz / 1 GHz setup."""
    wavelength = C_VACUUM / f0
    return ArrayConfig(
        n_elements=n_elements,
        element_spacing=spacing_wl * wavelength,
        carrier_freq=f0,
        pulse_freq=fp,
        path_count=path_count,
    )


@pytest.fixture(scope="session")
def peak_schedule():
    return design_schedule(reference_config(), THETA_20, 1.0)


@pytest.fixture(scope="session")
def peak_schedule_8path():
    return design_schedule(reference_config(path_count=8), THETA_20, 1.0)


@pytest.fixture
def design_calls(monkeypatch):
    """Counts the calls of ``design_schedule`` and ``validate``, through every
    switchbeam module that imported them."""
    calls = Counter()
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "switchbeam"]
    for name in ("design_schedule", "validate"):
        original = getattr(schedule_design, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls
