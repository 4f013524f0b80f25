"""Shared pytest fixtures.

Also inserts ``src/`` into ``sys.path`` so the test suite runs even when
the package has not been pip-installed (the offline evaluation environment
lacks the ``wheel`` package needed for editable installs).
"""

import os
import sys

import numpy as np
import pytest

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

from repro.can.bus import CANBus  # noqa: E402
from repro.messaging.bus import MessageBus  # noqa: E402
from repro.sim.scenarios import build_scenario  # noqa: E402
from repro.sim.sensors import SensorNoise  # noqa: E402
from repro.sim.world import World, WorldConfig  # noqa: E402


@pytest.fixture
def message_bus() -> MessageBus:
    return MessageBus()


@pytest.fixture
def can_bus() -> CANBus:
    return CANBus()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def world(message_bus, can_bus) -> World:
    """A deterministic, noise-free world for the S1 scenario."""
    config = WorldConfig(
        scenario=build_scenario("S1", 70.0),
        noise=SensorNoise.noiseless(),
        seed=0,
        record_trajectory=False,
        disturbance_amplitude=0.0,
    )
    return World(config, message_bus, can_bus)


@pytest.fixture
def noisy_world(message_bus, can_bus) -> World:
    """A world with the default noise and disturbance models."""
    config = WorldConfig(scenario=build_scenario("S1", 70.0), seed=3)
    return World(config, message_bus, can_bus)


@pytest.fixture(params=["production", "forced"])
def kernel_tiers(request, monkeypatch):
    """Run a batch test at the production tier threshold, then with the
    dense tier forced on.

    The production threshold (``DENSE_MIN_ACTIVE`` in
    :mod:`repro.kernel.batch`) keeps narrow batches on the scalar tier.
    At 1 even a one-row batch runs the CAN codec and the dense SoA
    columns, so a test taking this fixture covers both tiers at every
    width it runs.
    """
    if request.param == "forced":
        from repro.kernel import batch

        monkeypatch.setattr(batch, "DENSE_MIN_ACTIVE", 1)
    return request.param
