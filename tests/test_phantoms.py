import warnings
from dataclasses import replace

import numpy as np
import pytest

from matmi import fem
from matmi.mesh import build_mesh
from matmi.phantoms import (
    LAMBDA_FLOOR, Bump, PhantomSpec, make_phantom, boundary_distance, collar_taper,
    single_bump_spec, three_bump_spec, random_bump_spec,
)


def test_no_bumps_constant(mesh16):
    field = make_phantom(PhantomSpec(background=0.4), mesh16)
    assert np.all(field.values == 0.4)


def test_collar_nodes_bit_exact(mesh64):
    spec = PhantomSpec(bumps=(Bump((0.5, 0.5), 0.1, 0.15),), collar_width=0.15)
    field = make_phantom(spec, mesh64)
    d = boundary_distance(mesh64, mesh64.nodes[:, 0], mesh64.nodes[:, 1])
    collar = d <= 0.15 + 1e-12
    assert collar.any()
    assert np.all(field.values[collar] == 0.2)


def test_single_centered_bump_range(mesh64):
    spec = PhantomSpec(bumps=(Bump((0.5, 0.5), 0.1, 0.15),), collar_width=0.15)
    field = make_phantom(spec, mesh64)
    assert field.values.max() > 0.2
    assert field.values.max() <= 0.3 + 1e-12
    assert field.values.max() == pytest.approx(0.3, abs=1e-12)  # taper is 1 at the center


def test_three_bump_steeper_than_single(mesh64):
    single = make_phantom(single_bump_spec(), mesh64)
    three = make_phantom(three_bump_spec(), mesh64)
    assert fem.gradient_sup(three) > fem.gradient_sup(single)


def test_admissibility_floor_enforced(mesh32):
    spec = PhantomSpec(bumps=(Bump((0.5, 0.5), -0.1999, 0.15),))
    with pytest.raises(ValueError, match="floor"):
        make_phantom(spec, mesh32)


def test_parameter_validation(mesh16):
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec(collar_width=0.0), mesh16)
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec(background=-1.0), mesh16)
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec(bumps=(Bump((0.5, 0.5), -0.3, 0.1),)), mesh16)
    with pytest.raises(ValueError):
        make_phantom(PhantomSpec(bumps=(Bump((0.5, 0.5), 0.1, 0.0),)), mesh16)


def test_taper_profile_is_smoothstep():
    d = np.array([0.0, 0.1, 0.15, 0.225, 0.3, 0.5])
    t = collar_taper(d, 0.15)
    np.testing.assert_allclose(t, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0], atol=1e-14)


def test_tiny_collar_width_warns_nothing(mesh16):
    # distance / 1e-320 overflows to inf off the boundary, where the taper is 1
    spec = PhantomSpec(bumps=(Bump((0.5, 0.5), 0.1, 0.15),), collar_width=1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = make_phantom(spec, mesh16)
    expected = make_phantom(replace(spec, collar_width=1e-300), mesh16)
    np.testing.assert_array_equal(field.values, expected.values)


def test_random_specs_admissible(mesh16):
    rng = np.random.RandomState(50)
    for _ in range(20):
        field = make_phantom(random_bump_spec(rng, n_bumps=3), mesh16)
        assert field.values.min() > 0.0


@pytest.mark.parametrize("seed", [23, 50, 54])
def test_random_specs_admissible_on_seed_sequence_streams(seed):
    # the stream the benchmark derives from its seed; each of these holds a raw
    # draw whose phantom dips below the floor on this mesh
    mesh = build_mesh(128, 128)
    rng = np.random.RandomState(np.random.SeedSequence(seed).generate_state(4))
    for _ in range(20):
        make_phantom(random_bump_spec(rng), mesh)


@pytest.mark.parametrize("n_bumps", [2, 3])
def test_random_specs_meet_floor_bound(n_bumps):
    rng = np.random.RandomState(7)
    for _ in range(500):
        spec = random_bump_spec(rng, n_bumps=n_bumps)
        assert spec.background + sum(min(b.amplitude, 0.0) for b in spec.bumps) >= LAMBDA_FLOOR


def drawn_bumps(values):
    return tuple(
        Bump((0.3 + 0.4 * cx, 0.3 + 0.4 * cy), 0.12 * (2.0 * a - 1.0), 0.08 + 0.08 * w)
        for cx, cy, a, w in values.reshape(-1, 4)
    )


def test_random_spec_keeps_admissible_draws_and_redraws_the_rest():
    # in the benchmark's seed-23 stream, draw 12 has amplitudes -0.110 and
    # -0.102, so its bound is below the floor; every other draw is kept as drawn
    state = np.random.SeedSequence(23).generate_state(4)
    rng = np.random.RandomState(state)
    specs = [random_bump_spec(rng) for _ in range(13)]
    draws = np.random.RandomState(state).rand(14, 8)
    assert [s.bumps for s in specs] == [drawn_bumps(d) for d in draws[:12]] + [drawn_bumps(draws[13])]
