import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numeric_oracles as oracle
from innerqft import kinematics as kin
from innerqft import suites
from innerqft.config import RunConfig
from innerqft.fock import on_shell_energy
from innerqft.kinematics import ETA, MassShellMomentum
from innerqft.numeric import inner_transversal_projector
from innerqft.suites import _random_timelike, _shell_stack

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)
mass = st.floats(min_value=0.5, max_value=2.0)


def test_metric_signature():
    assert np.allclose(ETA, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_minkowski_dot_basic():
    # [DERIVED] (2,1,0,0).(3,0,1,0) = 2*3 - 1*0 - 0 - 0 = 6
    assert kin.minkowski_dot(np.array([2., 1, 0, 0]), np.array([3., 0, 1, 0])) == 6


def test_on_shell_energy_values():
    # [DERIVED] sqrt(1 + 9 + 16 + 0) = sqrt(26); 3-4-5 style check below
    assert on_shell_energy((3, 4, 0), 5.0) == pytest.approx(math.sqrt(50))
    assert on_shell_energy((0, 0, 0), 2.0) == pytest.approx(2.0)


def test_massless_rejected():
    with pytest.raises(ValueError):
        on_shell_energy((1, 0, 0), 0.0)
    for mass in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^mass must be positive$"):
            on_shell_energy((1, 0, 0), mass)
        with pytest.raises(ValueError, match="^mass must be positive$"):
            MassShellMomentum.of((1, 0, 0), mass)
        with pytest.raises(ValueError, match="^mass must be positive$"):
            MassShellMomentum((1.0, 0.0, 0.0), mass)


@pytest.mark.parametrize("spatial", [(math.nan, 0, 0), (0, math.inf, 0),
                                     (0, 0, -math.inf)])
def test_non_finite_spatial_momentum_rejected(spatial):
    with pytest.raises(ValueError, match="^spatial momentum components must "
                                         "be finite$"):
        MassShellMomentum.of(spatial, 1.0)


@given(finite, finite, finite, mass)
@settings(max_examples=60, deadline=None)
def test_mass_shell_invariant(x, y, z, m):
    k = MassShellMomentum.of((x, y, z), m).four_vector()
    assert kin.minkowski_dot(k, k) == pytest.approx(m * m, abs=1e-9)


@given(finite, finite, finite, mass)
@settings(max_examples=40, deadline=None)
def test_spacetime_polarizations(x, y, z, mu):
    k = MassShellMomentum.of((x, y, z), mu)
    eps = kin.build_spacetime_polarizations(k)
    k4 = k.four_vector()
    assert kin.completeness_residual(eps[1:], k4, k.mass**2) < 1e-10
    # zero mode is k/mu; the three others are transversal and orthonormal
    assert np.allclose(eps[0], k4 / mu, atol=1e-12)
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
    K = np.array([t, x, y, z])
    basis = kin.build_inner_polarizations(K)
    assert kin.completeness_residual(basis, K, kin.minkowski_dot(K, K)) < 1e-10
    for E in basis:
        assert abs(kin.minkowski_dot(K, E)) < 1e-10
        assert kin.minkowski_dot(E, E) == pytest.approx(-1.0, abs=1e-10)


def test_polarizations_are_the_boosted_axes():
    # [DERIVED] m = 1, p = (3/4, 0, 0): E = 5/4, u = (5/4, 3/4, 0, 0), and the
    # boost takes e1 to (u_1, 1 + u_1^2/(1 + u_0), 0, 0) = (3/4, 5/4, 0, 0)
    eps = kin.build_spacetime_polarizations(MassShellMomentum.of((0.75, 0, 0), 1.0))
    want = ([1.25, 0.75, 0, 0], [0.75, 1.25, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    for e, w in zip(eps, want):
        assert np.array_equal(e, w)
    # at rest the frame is the spatial axes
    eps = kin.build_spacetime_polarizations(MassShellMomentum.of((0, 0, 0), 1.3))
    for e, w in zip(eps, np.eye(4)):
        assert np.array_equal(e, w)


@pytest.mark.parametrize("K", [(3.0, 0.5, 0.2, -1.0), (2.0, 0, 0, 0),
                               (1.0, 1e-9, 0, 0), (1.0, 0, -0.3, 0.9)])
def test_inner_basis_is_shared_by_K_and_minus_K(K):
    K = np.array(K)
    for E, E_minus in zip(kin.build_inner_polarizations(K),
                          kin.build_inner_polarizations(-K)):
        assert np.array_equal(E, E_minus)
    assert kin.completeness_residual(kin.build_inner_polarizations(-K), -K,
                                     kin.minkowski_dot(K, K)) < 1e-12


def _lowered_completeness_residual(vectors, k, k2):
    """The residual of the lowered-index form sum_v v_a v_b = -eta_{ab} +
    k_a k_b / k2, the usual form of the inner identity: the oracle of
    `completeness_residual`."""
    kl = ETA @ k
    target = -ETA + np.outer(kl, kl) / k2
    got = sum(np.outer(ETA @ v, ETA @ v) for v in vectors)
    return float(np.max(np.abs(got - target)))


@pytest.mark.parametrize("seed", [0, 7, 21, 123])
def test_completeness_residual_equals_the_lowered_index_form(seed):
    """Lowering both indices flips signs only, so the residual is the same
    float, on the draws of `suite_kinematics` at the seed."""
    rng = random.Random(seed)
    for _ in range(100):
        mu = rng.uniform(0.5, 2.0)
        k = MassShellMomentum.of([rng.uniform(-2, 2) for _ in range(3)], mu)
        eps = kin.build_spacetime_polarizations(k)
        args = eps[1:], k.four_vector(), k.mass**2
        assert kin.completeness_residual(*args) == \
            _lowered_completeness_residual(*args)
    for _ in range(100):
        K = _random_timelike(rng)
        args = kin.build_inner_polarizations(K), K, kin.minkowski_dot(K, K)
        assert kin.completeness_residual(*args) == \
            _lowered_completeness_residual(*args)


def test_inner_polarizations_reject_nontimelike():
    with pytest.raises(ValueError):
        kin.build_inner_polarizations(np.array([1., 1, 0, 0]))
    with pytest.raises(ValueError):
        kin.build_inner_polarizations(np.array([0., 1, 2, 0]))
    with pytest.raises(ValueError):
        kin.build_inner_polarizations(np.array([math.nan, 0, 0, 0]))


def test_polarizations_deterministic():
    k = MassShellMomentum.of((0.4, -1.1, 0.7), 1.3)
    b1 = kin.build_spacetime_polarizations(k)
    b2 = kin.build_spacetime_polarizations(k)
    for e1, e2 in zip(b1, b2):
        assert np.array_equal(e1, e2)


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
    assert np.max(np.abs((ksl - m * np.eye(4)) @ u)) < 1e-10
    assert np.max(np.abs((ksl + m * np.eye(4)) @ v)) < 1e-10
    assert kin.bar(u) @ u == pytest.approx(1.0, abs=1e-10)
    assert kin.bar(v) @ v == pytest.approx(-1.0, abs=1e-10)
    assert u.conj() @ u == pytest.approx(
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
    assert kin.spin_sum_residual(k, "u") < 1e-10
    assert kin.spin_sum_residual(k, "v") < 1e-10
    with pytest.raises(ValueError, match="^spinor kind must be 'u' or 'v'$"):
        kin.spin_sum_residual(k, "w")


def test_spinor_orthogonality():
    k = MassShellMomentum.of((1.0, -0.5, 2.0), 1.7)
    u1 = kin.dirac_spinor(k, 1, "u")
    u2 = kin.dirac_spinor(k, 2, "u")
    v1 = kin.dirac_spinor(k, 1, "v")
    assert abs(kin.bar(u1) @ u2) < 1e-12
    assert abs(kin.bar(u1) @ v1) < 1e-12


# -- stacks of samples against the per-sample oracles -------------------------


def _equal(stacked, per_sample) -> bool:
    """Bit-for-bit equality of a stacked result and the per-sample results."""
    return np.array_equal(stacked, np.array(per_sample))


@pytest.mark.parametrize("mass, spatial", [((0.5, 2.0), (-2, 2)),
                                           ((0.1, 10), (-5, 5))])
def test_stacked_kinematics_equal_the_per_sample_oracle(mass, spatial):
    """Each stack-aware function gives, per sample, the float the
    one-sample form gives, on the draws of `suite_kinematics`, seeds 0-39."""
    for seed in range(40):
        k = _shell_stack(random.Random(seed), mass, spatial)
        ks = [(tuple(p), m) for p, m in zip(k.spatial.tolist(), k.mass.tolist())]
        k4 = k.four_vector()
        assert _equal(k4, [oracle.four_vector(one) for one in ks])
        eps = kin.build_spacetime_polarizations(k)
        eps1 = [oracle.spacetime_polarizations(one) for one in ks]
        for g in range(4):
            assert _equal(eps[g], [e[g] for e in eps1])
            for g2 in range(4):
                assert _equal(kin.minkowski_dot(eps[g], eps[g2]),
                              [oracle.minkowski_dot(e[g], e[g2]) for e in eps1])
        # a stacked m**2 is m*m, where the float m**2 of one sample is C's
        # pow(m, 2), which rounds differently for a few masses; both sides
        # take the same k2
        k2 = k.mass**2
        assert _equal(kin.completeness_residual(eps[1:], k4, k2),
                      [oracle.completeness_residual(e[1:], v, m2)
                       for e, v, m2 in zip(eps1, k4, k2.tolist())])
        assert _equal(kin.slash(k4), [oracle.slash(v) for v in k4])
        for kind in ("u", "v"):
            for s in (1, 2):
                sp = kin.dirac_spinor(k, s, kind)
                assert _equal(sp, [oracle.dirac_spinor(one, s, kind) for one in ks])
                assert _equal(kin.bar(sp), [oracle.bar(x) for x in sp])
            assert _equal(kin.spin_sum(k, kind),
                          [oracle.spin_sum(one, kind) for one in ks])
            assert _equal(kin.spin_sum_residual(k, kind),
                          [oracle.spin_sum_residual(one, kind) for one in ks])


def test_stacked_inner_bases_equal_the_per_sample_oracle():
    """The inner bases and the transversal projector, per sample, on the
    `_random_timelike` draws of seeds 0-39."""
    for seed in range(40):
        rng = random.Random(seed)
        K = np.array([_random_timelike(rng) for _ in range(100)])
        basis = kin.build_inner_polarizations(K)
        basis1 = [oracle.inner_polarizations(one) for one in K]
        for j in range(3):
            assert _equal(basis[j], [b[j] for b in basis1])
        assert _equal(kin.minkowski_dot(K, K),
                      [oracle.minkowski_dot(one, one) for one in K])
        assert _equal(kin.completeness_residual(basis, K, kin.minkowski_dot(K, K)),
                      [oracle.completeness_residual(b, one,
                                                    oracle.minkowski_dot(one, one))
                       for b, one in zip(basis1, K)])
        assert _equal(inner_transversal_projector(K),
                      [oracle.inner_transversal_projector(one) for one in K])


@pytest.mark.parametrize("tol", [1e-12, 1e-17])
def test_stacked_kinematics_suite_equals_the_per_sample_loops(tol):
    """`suite_kinematics` reports what its earlier per-sample loops
    reported, seeds 0-39; at 1e-17 some cases fail, with the same text."""
    for seed in range(40):
        cfg = RunConfig(seed=seed, tolerance=tol)
        assert suites.suite_kinematics(cfg) == oracle.suite_kinematics(cfg)


def test_stacked_momenta_check_every_sample():
    with pytest.raises(ValueError, match="^mass must be positive$"):
        MassShellMomentum.of(np.zeros((3, 3)), [1.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="^spatial momentum components must "
                                         "be finite$"):
        MassShellMomentum.of([[0, 0, 0], [1, math.inf, 0]], 1.0)
    K = np.array([[2.0, 0, 0, 0], [1.0, 1.0, 0, 0]])
    with pytest.raises(ValueError, match="^inner polarizations require K"):
        kin.build_inner_polarizations(K)


def test_mass_shell_momenta_compare_and_hash_by_their_arrays():
    k = MassShellMomentum.of((0.5, -0.0, 2.0), 1.5)
    same = MassShellMomentum.of([0.5, 0.0, 2], 1.5)
    assert k == same and not k != same
    assert hash(k) == hash(same)
    assert k == MassShellMomentum((0.5, 0.0, 2.0), 1.5)
    assert k != MassShellMomentum.of((0.5, 0.0, 2.0), 1.25)
    assert k != MassShellMomentum.of((0.5, 0.0, 2.0), [1.5, 1.5])
    stack = MassShellMomentum.of([[1, 0, 0], [0, 1, 0]], [1.0, 2.0])
    assert stack == MassShellMomentum.of([[1, 0, 0], [0, 1, 0]], [1.0, 2.0])
    assert stack != MassShellMomentum.of([[1, 0, 0], [0, 1, 0]], [2.0, 1.0])
    assert len({k, same, stack}) == 2
