import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerqft import kinematics as kin
from innerqft.kinematics import ETA, FourVector, MassShellMomentum

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)
mass = st.floats(min_value=0.5, max_value=2.0)


def test_metric_signature():
    assert np.allclose(ETA, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_minkowski_dot_basic():
    # [DERIVED] (2,1,0,0).(3,0,1,0) = 2*3 - 1*0 - 0 - 0 = 6
    assert kin.minkowski_dot(FourVector(2, 1, 0, 0), FourVector(3, 0, 1, 0)) == 6


def test_on_shell_energy_values():
    # [DERIVED] sqrt(1 + 9 + 16 + 0) = sqrt(26); 3-4-5 style check below
    assert kin.on_shell_energy((3, 4, 0), 5.0) == pytest.approx(math.sqrt(50))
    assert kin.on_shell_energy((0, 0, 0), 2.0) == pytest.approx(2.0)


def test_massless_rejected():
    with pytest.raises(ValueError):
        kin.on_shell_energy((1, 0, 0), 0.0)
    with pytest.raises(ValueError):
        MassShellMomentum.of((1, 0, 0), 0.0)


@given(finite, finite, finite, mass)
@settings(max_examples=60, deadline=None)
def test_mass_shell_invariant(x, y, z, m):
    k = MassShellMomentum.of((x, y, z), m).four_vector()
    assert kin.minkowski_dot(k, k) == pytest.approx(m * m, abs=1e-9)


@given(finite, finite, finite, mass)
@settings(max_examples=40, deadline=None)
def test_spacetime_polarizations(x, y, z, mu):
    k = MassShellMomentum.of((x, y, z), mu)
    basis = kin.build_spacetime_polarizations(k, mu)
    assert kin.spacetime_completeness_residual(basis, k, mu) < 1e-10
    eps = basis.spacetime
    k4 = k.four_vector()
    # zero mode is k/mu; the three others are transversal and orthonormal
    assert np.allclose(eps[0].as_array(), k4.as_array() / mu, atol=1e-12)
    for g in range(1, 4):
        assert abs(kin.minkowski_dot(k4, eps[g])) < 1e-10
    for g in range(4):
        for g2 in range(4):
            assert kin.minkowski_dot(eps[g], eps[g2]) == pytest.approx(
                ETA[g, g2], abs=1e-10)


@given(finite, finite, finite, st.floats(min_value=0.3, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_inner_polarizations(x, y, z, gap):
    t = math.sqrt(x * x + y * y + z * z) + gap
    K = FourVector(t, x, y, z)
    basis = kin.build_inner_polarizations(K)
    assert kin.inner_completeness_residual(basis, K) < 1e-10
    for E in basis.inner:
        assert abs(kin.minkowski_dot(K, E)) < 1e-10
        assert kin.minkowski_dot(E, E) == pytest.approx(-1.0, abs=1e-10)


def test_inner_polarizations_reject_nontimelike():
    with pytest.raises(ValueError):
        kin.build_inner_polarizations(FourVector(1, 1, 0, 0))
    with pytest.raises(ValueError):
        kin.build_inner_polarizations(FourVector(0, 1, 2, 0))


def test_polarizations_deterministic():
    k = MassShellMomentum.of((0.4, -1.1, 0.7), 1.3)
    b1 = kin.build_spacetime_polarizations(k, 1.3)
    b2 = kin.build_spacetime_polarizations(k, 1.3)
    for e1, e2 in zip(b1.spacetime, b2.spacetime):
        assert np.array_equal(e1.as_array(), e2.as_array())


def test_gamma_clifford_exact():
    assert kin.gamma_anticommutator_residual() == 0.0


@given(finite, finite, finite, mass, st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_dirac_spinors(x, y, z, m, s):
    k = MassShellMomentum.of((x, y, z), m)
    k4 = k.four_vector()
    u = kin.dirac_spinor(k, s, "u")
    v = kin.dirac_spinor(k, s, "v")
    ksl = kin.slash(k4)
    assert np.max(np.abs((ksl - m * np.eye(4)) @ u.components)) < 1e-10
    assert np.max(np.abs((ksl + m * np.eye(4)) @ v.components)) < 1e-10
    assert u.bar() @ u.components == pytest.approx(1.0, abs=1e-10)
    assert v.bar() @ v.components == pytest.approx(-1.0, abs=1e-10)
    assert u.components.conj() @ u.components == pytest.approx(
        k.energy / m, abs=1e-10)


@given(finite, finite, finite, mass)
@settings(max_examples=40, deadline=None)
def test_spin_sums(x, y, z, m):
    k = MassShellMomentum.of((x, y, z), m)
    k4 = k.four_vector()
    proj_u = (kin.slash(k4) + m * np.eye(4)) / (2 * m)
    proj_v = (kin.slash(k4) - m * np.eye(4)) / (2 * m)
    assert np.max(np.abs(kin.spin_sum(k, "u") - proj_u)) < 1e-10
    assert np.max(np.abs(kin.spin_sum(k, "v") - proj_v)) < 1e-10


def test_spinor_orthogonality():
    k = MassShellMomentum.of((1.0, -0.5, 2.0), 1.7)
    u1 = kin.dirac_spinor(k, 1, "u")
    u2 = kin.dirac_spinor(k, 2, "u")
    v1 = kin.dirac_spinor(k, 1, "v")
    assert abs(u1.bar() @ u2.components) < 1e-12
    assert abs(u1.bar() @ v1.components) < 1e-12
