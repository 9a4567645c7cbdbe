"""Each benchmark check passes a good output and fails a corrupted one.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
from breitlab import (  # noqa: E402
    BilocalField,
    ClassicalState,
    DarwinSystem,
    HamiltonianSpec,
    parse_config_text,
    positive_energy_projector,
    solve_spectrum,
)
from breitlab import darwin  # noqa: E402

TOL = 1e-8


@pytest.fixture(scope="module")
def spectrum():
    cfg = parse_config_text("task = spectrum\nmass2 = 1.0\nalpha_eff = 0.2\ngrid_n = 8\nbox_length = 40.0\n")
    spec = HamiltonianSpec(cfg.particle1, cfg.particle2, cfg.coupling, cfg.grid)
    res = solve_spectrum(spec, n_states=4, tol=TOL, seed=3, keep_vectors=True)
    trial = checks.singlet_trial(cfg.grid, 1.0 / (0.5 * 0.2))
    return spec, res, trial


def _flat(failures):
    return [m for op in failures for m in op]


def test_good_eigenpairs_pass(spectrum):
    spec, res, trial = spectrum
    assert _flat(checks.eigenpair_failures(spec, TOL, res.eigenvalues, res.eigenvectors, trial)) == []


def test_shifted_eigenvalue_fails(spectrum):
    spec, res, trial = spectrum
    lam = list(res.eigenvalues)
    lam[2] += 1e-5
    fails = checks.eigenpair_failures(spec, TOL, lam, res.eigenvectors, trial)
    assert any("residual" in m for m in fails[2])


def test_vector_outside_range_p_fails(spectrum):
    spec, res, trial = spectrum
    v = res.eigenvectors[1]
    w = BilocalField.random(spec.grid, seed=7)
    outside = w.values - positive_energy_projector(spec, w).values
    vecs = list(res.eigenvectors)
    vecs[1] = BilocalField(v.grid, v.values + 1e-6 * outside / np.linalg.norm(outside) * np.linalg.norm(v.values))
    fails = checks.eigenpair_failures(spec, TOL, res.eigenvalues, vecs, trial)
    assert any("(1-P)v" in m for m in fails[1])


def test_study_checks():
    mu, alpha, h = 0.5, 0.1, 160.0 / 12
    levels = [2.5, 1.25, 0.625]
    good = [-0.0023822500657706414, -0.002485551226802496, -0.0025779251878685905]
    assert _flat(checks.study_failures(levels, good, mu, alpha, h)) == []
    swapped = [good[0], good[2], good[1]]
    assert any("not below" in m for m in _flat(checks.study_failures(levels, swapped, mu, alpha, h)))
    off = [good[0], good[1], -0.003]
    assert _flat(checks.study_failures(levels, off, mu, alpha, h))


@pytest.fixture(scope="module")
def orbit():
    cfg = parse_config_text("task = dynamics\nmass2 = 2.0\nalpha_eff = 1.0\ngrid_n = 8\nbox_length = 20.0\n")
    system = DarwinSystem((cfg.particle1, cfg.particle2), light_speed=10.0)
    omega, _ = darwin.circular_orbit(system, 1.0)
    dt, n = 0.008, 200
    start = darwin.circular_initial_state(system, 1.0)
    tr = darwin.integrate(system, start, dt, n)
    back = darwin.integrate(system, ClassicalState(0.0, tr.positions[-1], -tr.velocities[-1]), dt, n)
    return system, omega, dt, tr, back


def _orbit_failures(system, omega, dt, tr, back, positions, energies=None):
    binding = darwin.binding_energy(system, ClassicalState(0.0, tr.positions[0], tr.velocities[0]))
    return checks.orbit_failures(tr.times, positions, tr.velocities,
                                 tr.energies if energies is None else energies, tr.total_momenta,
                                 binding, 1.0, omega, 1e-6, dt, back.positions[-1],
                                 back.velocities[-1], system.fixed_point_tol)


def test_good_orbit_passes(orbit):
    system, omega, dt, tr, back = orbit
    assert _orbit_failures(system, omega, dt, tr, back, tr.positions) == []


def test_orbit_with_phase_advanced_fails(orbit):
    system, omega, dt, tr, back = orbit
    c, s = np.cos(0.01), np.sin(0.01)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pos = tr.positions.copy()
    pos[-1] = pos[-1] @ rot.T
    assert any("phase" in m for m in _orbit_failures(system, omega, dt, tr, back, pos))


def test_orbit_with_energy_drift_fails(orbit):
    system, omega, dt, tr, back = orbit
    energies = tr.energies.copy()
    energies[-1] += 1e-5
    assert any("energy drift" in m
               for m in _orbit_failures(system, omega, dt, tr, back, tr.positions, energies))


def _spin_matrix():
    """Singlet-triplet shift matrix like the oracle's, with a complex
    anisotropic part of the size the lattice gives it."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    m = (-8.5e-5 * np.eye(4) - 4.5e-4 * np.outer(singlet, singlet)).astype(complex)
    m[0, 1] = m[0, 2] = -2.7e-9 + 2.7e-9j
    m[1, 0] = m[2, 0] = np.conj(m[0, 1])
    return m


def test_good_shift_matrix_passes():
    m = _spin_matrix()
    assert checks.shift_matrix_failures(m, 1.05 * m, 2.5, 10.0) == []


def test_conjugated_element_fails():
    m = _spin_matrix()
    bad = m.copy()
    bad[0, 1] = np.conj(bad[0, 1])
    assert any("Hermitian" in f for f in checks.shift_matrix_failures(bad, 1.05 * m, 2.5, 10.0))


def test_solver_disagreement_fails():
    m = _spin_matrix()
    assert any("differ" in f for f in checks.shift_matrix_failures(m, 1.2 * m, 2.5, 10.0))
