"""Session-cached reference runs shared across the test modules."""

from typing import NamedTuple

import numpy as np
import pytest

from tpim import integrate, validate_parameters

from support import SYMMETRIC, TABLE1, scenario, state_at


@pytest.fixture(scope="session", autouse=True)
def private_compile_cache(tmp_path_factory):
    """XDG_CACHE_HOME at a directory of this session, before any run: the C
    step loops the tests build are cached there, never in the user's cache.
    Child processes inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def table1():
    return validate_parameters(TABLE1)


@pytest.fixture(scope="session")
def symmetric():
    return validate_parameters(SYMMETRIC)


@pytest.fixture(scope="session")
def rated_trace(table1):
    """Rated startup: 230 V rms / 50 Hz quadrature, 1.0096 N*m, 1.0 s."""
    return integrate(table1, scenario())


@pytest.fixture(scope="session")
def symmetric_trace(symmetric):
    """Symmetric reduction of the rated startup, run to full steady state."""
    return integrate(symmetric, scenario(duration=2.0))


@pytest.fixture(scope="session")
def euler_reference(table1):
    """Forward-Euler oracle at dt=1e-7 over the first 0.2 s, recorded every
    1e-4 s so records align index-for-index with dt=1e-4 runs. Its record
    at t = 0.1 s is the finest rung of euler_extrapolated_reference, which
    criterion 5 measures RK4's order against."""
    return integrate(
        table1, scenario(method="euler", dt=1e-7, duration=0.2, record_every=1000)
    )


class RichardsonReference(NamedTuple):
    """Forward-Euler endpoints at t = 0.1 s and their extrapolations."""

    ladder: tuple  # state vectors E(h), E(2h), E(4h) for h = 1e-7
    r1: np.ndarray  # first-order error removed: 2E(h) - E(2h)
    r2: np.ndarray  # second-order error removed too: (4R1(h) - R1(2h)) / 3


@pytest.fixture(scope="session")
def euler_extrapolated_reference(table1, euler_reference):
    """Two-level Richardson extrapolation of the forward-Euler oracle at
    t = 0.1 s from steps 1e-7 (euler_reference), 2e-7 and 4e-7.

    Euler's global error expands in powers of h, so each level cancels one
    term: the dt=1e-7 endpoint alone is ~2e-5 of scale off, r2 agrees with
    a fine RK4 run to ~1e-12. |r1 - r2| estimates the error left in r1 and
    so overstates the error of r2."""
    ladder = [state_at(euler_reference, 1000)]
    for dt in (2e-7, 4e-7):
        n_steps = round(0.1 / dt)
        trace = integrate(
            table1,
            scenario(method="euler", dt=dt, duration=0.1, record_every=n_steps),
        )
        ladder.append(state_at(trace, -1))
    e_h, e_2h, e_4h = ladder
    r1_h = 2.0 * e_h - e_2h
    r1_2h = 2.0 * e_2h - e_4h
    r2 = (4.0 * r1_h - r1_2h) / 3.0
    return RichardsonReference(ladder=tuple(ladder), r1=r1_h, r2=r2)


@pytest.fixture(scope="session")
def rk4_02_trace(table1):
    return integrate(table1, scenario(duration=0.2))
