"""Voltage sources and load profiles."""

import math

import numpy as np
import pytest

from tpim import Harmonic, LoadProfile, VoltageSource, quadrature_supply
from tpim.dynamics import compile_sources

from support import SOURCE_SHAPES, sample_load, sample_voltage


def test_quadrature_amplitude_is_sqrt2_rms():
    src = quadrature_supply(230.0, 50.0)
    assert src.alpha[0].amplitude == pytest.approx(math.sqrt(2) * 230.0, rel=1e-15)
    assert src.beta[0].amplitude == src.alpha[0].amplitude
    assert src.beta[0].phase == pytest.approx(-math.pi / 2)


def test_quadrature_samples_at_key_times():
    src = quadrature_supply(230.0, 50.0)
    peak = math.sqrt(2) * 230.0
    v0 = sample_voltage(src, 0.0)
    assert v0[0] == pytest.approx(peak, rel=1e-12)
    assert v0[1] == pytest.approx(0.0, abs=1e-9)
    quarter = sample_voltage(src, 1.0 / (4 * 50.0))
    assert quarter[0] == pytest.approx(0.0, abs=1e-9)
    assert quarter[1] == pytest.approx(peak, rel=1e-12)


def test_quadrature_peak_mode():
    src = quadrature_supply(325.0, 50.0, amplitude_is_peak=True)
    assert src.alpha[0].amplitude == 325.0


@pytest.mark.parametrize("v,f", [(0.0, 50.0), (-5.0, 50.0), (230.0, 0.0), (230.0, math.inf)])
def test_quadrature_rejects_nonpositive(v, f):
    with pytest.raises(ValueError):
        quadrature_supply(v, f)


def test_voltage_source_invariants():
    with pytest.raises(ValueError, match="frequency"):
        VoltageSource(alpha=(), beta=(), frequency=0.0)
    with pytest.raises(ValueError, match="frequency must be finite"):
        VoltageSource(alpha=(), beta=(), frequency=math.inf)
    with pytest.raises(ValueError, match="duplicate harmonic order"):
        VoltageSource(
            alpha=(Harmonic(1, 10.0), Harmonic(1, 5.0)), beta=(), frequency=50.0
        )
    with pytest.raises(ValueError, match="amplitude"):
        VoltageSource(alpha=(Harmonic(1, -1.0),), beta=(), frequency=50.0)
    with pytest.raises(ValueError, match="amplitude must be finite"):
        VoltageSource(alpha=(Harmonic(1, math.inf),), beta=(), frequency=50.0)
    with pytest.raises(ValueError, match="phase must be finite"):
        VoltageSource(alpha=(), beta=(Harmonic(1, 1.0, math.nan),), frequency=50.0)
    with pytest.raises(ValueError, match="order"):
        VoltageSource(alpha=(Harmonic(0, 1.0),), beta=(), frequency=50.0)
    with pytest.raises(ValueError, match="harmonic order must be a positive integer: True"):
        VoltageSource(alpha=(Harmonic(True, 300.0),), beta=(), frequency=50.0)


def test_empty_source_samples_zero():
    src = VoltageSource(alpha=(), beta=(), frequency=50.0)
    assert sample_voltage(src, 0.123) == (0.0, 0.0)


def test_two_harmonic_sample_at_zero():
    src = VoltageSource(
        alpha=(Harmonic(1, 100.0), Harmonic(3, 20.0)), beta=(), frequency=50.0
    )
    assert sample_voltage(src, 0.0)[0] == pytest.approx(120.0, rel=1e-15)


def test_periodicity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        orders = rng.choice(np.arange(1, 8), size=3, replace=False)
        harmonics = tuple(
            Harmonic(int(o), float(rng.uniform(0, 100)), float(rng.uniform(-math.pi, math.pi)))
            for o in orders
        )
        f = float(rng.uniform(10.0, 400.0))
        src = VoltageSource(alpha=harmonics, beta=harmonics[:1], frequency=f)
        scale = sum(h.amplitude for h in harmonics) + 1e-30
        for t in rng.uniform(0.0, 5.0 / f, size=5):
            va0, vb0 = sample_voltage(src, float(t))
            va1, vb1 = sample_voltage(src, float(t) + 1.0 / f)
            assert abs(va1 - va0) <= 1e-12 * scale
            assert abs(vb1 - vb0) <= 1e-12 * scale


def test_quadrature_identity():
    src = quadrature_supply(230.0, 50.0)
    target = 2.0 * 230.0**2
    for t in np.linspace(0.0, 0.04, 41):
        va, vb = sample_voltage(src, float(t))
        assert va * va + vb * vb == pytest.approx(target, rel=1e-12)


def test_constant_load():
    profile = LoadProfile.constant(1.0096)
    for t in (0.0, 0.37, 12.0):
        assert sample_load(profile, t) == 1.0096


def test_step_load_right_continuous():
    profile = LoadProfile(((0.0, 0.0), (0.5, 1.0096)))
    assert sample_load(profile, 0.49) == 0.0
    assert sample_load(profile, 0.5) == 1.0096  # breakpoint inclusive
    assert sample_load(profile, 99.0) == 1.0096  # last value held


def test_load_profile_invariants():
    with pytest.raises(ValueError, match="at least one"):
        LoadProfile(())
    with pytest.raises(ValueError, match="t = 0"):
        LoadProfile(((0.1, 1.0),))
    with pytest.raises(ValueError, match="strictly increasing"):
        LoadProfile(((0.0, 1.0), (0.5, 2.0), (0.5, 3.0)))
    with pytest.raises(ValueError, match="starts must be finite"):
        LoadProfile(((0.0, 0.0), (math.nan, 1.0096)))
    with pytest.raises(ValueError, match="finite"):
        LoadProfile(((0.0, math.inf),))


RICH = VoltageSource(
    alpha=(Harmonic(1, 100.0, 0.2), Harmonic(5, 10.0, -1.0)),
    beta=(Harmonic(1, 90.0, -0.3),),
    frequency=60.0,
)


def test_compiled_sources_match_reference_samplers():
    supplies = {shape: supply for shape, (supply, _) in SOURCE_SHAPES.items()}
    for shape, supply in {**supplies, "rich": RICH, "silent": VoltageSource((), (), 50.0)}.items():
        sources = compile_sources(supply)
        for t in [*np.linspace(0.0, 0.08, 57), 2e-3, 3.3e-3]:
            t = float(t)
            # repr tells -0.0 from 0.0: both sum a series from 0.0.
            assert repr(sources(t)) == repr(sample_voltage(supply, t)), (shape, t)


def test_compiled_sources_take_any_harmonic_count():
    # Each term is its own statement: a single expression this long would
    # nest past the compiler's recursion limit.
    supply = VoltageSource(
        alpha=tuple(Harmonic(k, 1.0 / k, 0.01 * k) for k in range(1, 5001)),
        beta=(Harmonic(1, 2.0),),
        frequency=50.0,
    )
    sources = compile_sources(supply)
    for t in (0.0, 1.3e-3, 0.0171):
        assert repr(sources(t)) == repr(sample_voltage(supply, t))


def test_angular_frequency_must_be_finite():
    with pytest.raises(ValueError, match=r"2\*pi\*1e\+307\*5 of harmonic 5 on phase beta is not finite"):
        VoltageSource(alpha=(Harmonic(1, 1.0),), beta=(Harmonic(5, 1.0),), frequency=1e307)
    with pytest.raises(ValueError, match="harmonic 1 on phase alpha is not finite"):
        quadrature_supply(230.0, 1e308)
