"""Closed-loop runs shared across test modules, each integrated once per session."""

import pytest

from dads.controllers import SigmaModController
from dads.simulate import SimConfig, simulate
from dads.systems import DisturbanceProfile, constant_parameter, wingrock


def sigma_persistent_run(leak):
    """10 s RK4 run of the leakage baseline under the persistent disturbance."""
    cfg = SimConfig(dt=1e-4, t_end=10.0, method="rk4", log_stride=100)
    return simulate(
        wingrock(), SigmaModController(sigma_leak=leak), [1.0, -0.5, -18.0], [0.0] * 4,
        DisturbanceProfile("sinusoid-bank", 2, (20.0, 10.0), (10.0, 20.0)),
        constant_parameter([20.0, 20.0, 2.0, 1.0]), cfg, output_indices=[0, 1],
    )


@pytest.fixture(scope="session")
def sigma0_persistent():
    return sigma_persistent_run(0.0)


@pytest.fixture(scope="session")
def sigma04_persistent():
    return sigma_persistent_run(0.4)
