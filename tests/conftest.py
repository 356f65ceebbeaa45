import numpy as np
import pytest

from birkhofflab import metric_models as mm
from birkhofflab import birkhoff_section as bs


@pytest.fixture(scope="session")
def round_model():
    return mm.make_round(1.0)


@pytest.fixture(scope="session")
def spheroid_model():
    return mm.make_spheroid(1.03)


@pytest.fixture(scope="session")
def zoll_model():
    return mm.make_zoll([0.1, 0.0, -0.1])


@pytest.fixture(scope="session")
def round_section(round_model):
    return bs.build_section(round_model)


@pytest.fixture(scope="session")
def spheroid_section(spheroid_model):
    return bs.build_section(spheroid_model)


@pytest.fixture(scope="session")
def round_grid(round_section):
    # ny = 65 keeps the monotonicity precondition and puts y = pi/2 on-grid,
    # which exercises orbits passing exactly through the poles.
    return bs.compute_return_grid(round_section, nx=32, ny=65)


@pytest.fixture(scope="session")
def spheroid_grid(spheroid_section):
    return bs.compute_return_grid(spheroid_section, nx=32, ny=65)


@pytest.fixture
def flag_one_orbit(monkeypatch):
    """A function that makes every later return sweep flag its middle
    orbit: ``flag_one_orbit("grazing")`` as grazing the base plane,
    ``flag_one_orbit("short")`` as finding one event fewer than it needs."""
    def flag(kind):
        sweep = bs._return_sweep

        def flagged(*args, **kwargs):
            res = sweep(*args, **kwargs)
            k = len(res.n_found) // 2
            if kind == "grazing":
                res.grazing[k] = True
            else:
                res.n_found[k] -= 1
            return res

        monkeypatch.setattr(bs, "_return_sweep", flagged)

    return flag
