"""Correctness checks on the outputs of one benchmark round.

Each check is a property of the method or a computation that does not go
through the code path that produced the output.  Every function returns,
per checked operation, a list of failure messages; an empty list means the
operation passed.  The bounds are derived in README.md.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from breitlab import BilocalField, apply_hamiltonian, positive_energy_projector

# Recomputed eigenpair residual, relative to tol.  LOBPCG stops at tol or,
# after maxiter, returns its best iterate; recomputed residuals stayed at
# or below 0.7*tol on the seeds tried.
RESIDUAL_FACTOR = 10.0
# ||(1-P)v|| / ||v||.  P is applied inside every operator application, so
# (1-P)v is rounding only: a few hundred FFT rounds at 1e-16 each.
RANGE_BOUND = 1e-10
# The triplet must agree within this share of the singlet-triplet gap.
SPLIT_SHARE = 1e-2
# The singlet-triplet gap must exceed the largest residual by this factor,
# or the eigenvalues cannot resolve it.
GAP_OVER_RESIDUAL = 10.0


def eigenpair_failures(spec, tol, eigenvalues, vectors, trial):
    """Checks of the lowest eigenpairs of P H P on the benchmark's spectrum.

    ``vectors`` are BilocalFields, ``trial`` is a field the caller built
    itself; its Rayleigh quotient bounds the ground eigenvalue from above.
    Per pair: recomputed residual, membership in range(P), position below
    the continuum; then the spectrum's 1+3 structure and the variational
    bound on the ground level.
    """
    msum = spec.particle1.mass + spec.particle2.mass
    out = [[] for _ in eigenvalues]
    residuals = []
    for k, (lam, v) in enumerate(zip(eigenvalues, vectors)):
        nrm = v.norm()
        pv = positive_energy_projector(spec, v)
        outside = BilocalField(v.grid, v.values - pv.values).norm() / nrm
        phpv = positive_energy_projector(spec, apply_hamiltonian(spec, pv))
        res = BilocalField(v.grid, phpv.values - lam * v.values).norm() / nrm
        residuals.append(res)
        if not res <= RESIDUAL_FACTOR * tol:
            out[k].append(f"state {k}: residual {res:.3e} > {RESIDUAL_FACTOR:g}*tol")
        if not outside <= RANGE_BOUND:
            out[k].append(f"state {k}: ||(1-P)v||/||v|| = {outside:.3e} > {RANGE_BOUND:g}")
        if not lam < msum:
            out[k].append(f"state {k}: eigenvalue {lam!r} not below m1+m2 = {msum}")

    lam = np.asarray(eigenvalues, dtype=float)
    if len(lam) >= 4:
        gap = lam[1] - lam[0]
        spread = lam[3] - lam[1]
        if not gap > GAP_OVER_RESIDUAL * max(residuals):
            out[0].append(f"singlet gap {gap:.3e} not resolved by residuals {max(residuals):.3e}")
        if not spread <= SPLIT_SHARE * gap:
            for k in (1, 2, 3):
                out[k].append(f"triplet spread {spread:.3e} > {SPLIT_SHARE:g} * gap {gap:.3e}")

    pt = positive_energy_projector(spec, trial)
    rq = pt.dot(apply_hamiltonian(spec, pt)).real / pt.dot(pt).real
    if not lam[0] <= rq + residuals[0]:
        out[0].append(f"ground {lam[0]!r} above the trial Rayleigh quotient {rq!r}")
    return out


def singlet_trial(grid, bohr_radius):
    """exp(-r/a) times the spin singlet in the upper components."""
    x = grid.axis_coords()
    r = np.sqrt(x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2)
    phi = np.exp(-r / bohr_radius)
    n = grid.n
    values = np.zeros((n, n, n, 4, 4), dtype=complex)
    values[..., 0, 1] = phi
    values[..., 1, 0] = -phi
    return BilocalField(grid, values)


def _one_s_expectation(fn, bohr_radius):
    """<fn(r)> in the hydrogenic 1s state of the given Bohr radius."""
    a = bohr_radius
    val, _ = quad(lambda r: fn(r) * 4.0 * r * r * math.exp(-2.0 * r / a) / a**3, 0.0, math.inf, limit=200)
    return val


def softening_shift(alpha, bohr_radius, softening):
    """Upper bound on E(a) - E(0): first order in the softened potential.

    With the exact 1s state as trial, the variational principle gives
    0 <= E(a) - E(0) <= alpha <1/r - 1/sqrt(r^2 + a^2)>.
    """
    if softening == 0.0:
        return 0.0
    return alpha * _one_s_expectation(
        lambda r: 1.0 / r - 1.0 / math.sqrt(r * r + softening**2) if r > 0 else 0.0,
        bohr_radius,
    )


def band_limit_shift(alpha, bohr_radius, spacing):
    """Coulomb energy carried by the modes a grid of spacing h drops.

    <V> = -(2 alpha / pi) int_0^inf rho(k) dk with rho(k) = (1 + (k a/2)^2)^-2
    the Fourier transform of the 1s density; the grid keeps |k| <= pi/h.
    """
    x = math.pi / spacing * bohr_radius / 2.0
    tail = 0.5 * (math.pi / 2 - math.atan(x) - x / (1 + x * x))
    return (2.0 * alpha / math.pi) * (2.0 / bohr_radius) * tail


def study_failures(levels, bindings, mu, alpha, spacing):
    """Checks of a softening-axis study against the nonrelativistic limit.

    Each binding must lie within softening_shift + band_limit_shift + mu
    alpha^4 (the order of every relativistic correction) of -mu alpha^2/2,
    and the bindings must deepen as the softening shrinks: the softened
    potential is pointwise deeper for smaller a, so by min-max the ground
    level is too.
    """
    exact = -mu * alpha**2 / 2
    a_b = 1.0 / (mu * alpha)
    out = [[] for _ in levels]
    for k, (a, e) in enumerate(zip(levels, bindings)):
        if e is None:
            out[k].append(f"level {a}: no binding")
            continue
        bound = softening_shift(alpha, a_b, a) + band_limit_shift(alpha, a_b, spacing) + mu * alpha**4
        if not abs(e - exact) <= bound:
            out[k].append(f"level {a}: |{e!r} - {exact!r}| > {bound:.3e}")
    order = np.argsort(levels)[::-1]
    for prev, cur in zip(order, order[1:]):
        bp, bc = bindings[prev], bindings[cur]
        if bp is not None and bc is not None and not bc < bp:
            out[cur].append(f"level {levels[cur]}: binding {bc!r} not below {bp!r} at a={levels[prev]}")
    return out


# Implicit midpoint distorts a circular orbit of frequency w by a relative
# amount of order (w dt)^2: its leading error term is second order.
def orbit_failures(times, positions, velocities, energies, momenta, binding, radius, omega, tol,
                   dt, back_positions, back_velocities, fixed_point_tol):
    """Checks of one circular-orbit trajectory.

    ``energies`` include the rest masses; the drift bound scales with the
    ``binding`` energy.  ``back_*`` are the final positions and velocities
    of an integration of the same length started from the last state with
    velocities reversed.
    """
    fails = []
    e_drift = float(np.max(np.abs(energies - energies[0])))
    e_bind = abs(binding)
    if not e_drift <= tol * e_bind:
        fails.append(f"energy drift {e_drift:.3e} > tol*|E| = {tol * e_bind:.3e}")
    p_drift = float(np.max(np.linalg.norm(momenta - momenta[0], axis=1)))
    if not p_drift <= tol:
        fails.append(f"momentum drift {p_drift:.3e} > tol = {tol:g}")

    sep = positions[:, 0] - positions[:, 1]
    r_dev = float(np.max(np.abs(np.linalg.norm(sep, axis=1) / radius - 1.0)))
    wdt2 = (omega * dt) ** 2
    if not r_dev <= wdt2:
        fails.append(f"separation deviates by {r_dev:.3e} > (w dt)^2 = {wdt2:.3e}")

    # Angular momentum fixes w r^2, so a radius error d shifts the rate by
    # 2 d w; implicit midpoint also lags a rotation by (w dt)^3/12 per step.
    angle = np.unwrap(np.arctan2(sep[:, 1], sep[:, 0]))
    n_steps = len(times) - 1
    t = times[-1] - times[0]
    phase_err = abs((angle[-1] - angle[0]) - omega * t)
    phase_bound = 2.0 * r_dev * omega * t + n_steps * (omega * dt) ** 3 / 12.0
    if not phase_err <= phase_bound:
        fails.append(f"phase error {phase_err:.3e} > {phase_bound:.3e}")

    # Each stage equation is solved to fixed_point_tol * scale; the
    # round trip takes 2*n_steps of them.
    scale = max(1.0, float(np.max(np.abs(positions))), float(np.max(np.abs(velocities))))
    back_bound = 2.0 * n_steps * fixed_point_tol * scale
    back_err = max(
        float(np.max(np.abs(back_positions - positions[0]))),
        float(np.max(np.abs(back_velocities + velocities[0]))),
    )
    if not back_err <= back_bound:
        fails.append(f"reversed run misses the start by {back_err:.3e} > {back_bound:.3e}")
    return fails


# The oracle multiplies the band-limited 1/r_s by the pointwise direction
# factor n_i n_j; the solver band-limits n_i n_j / r_s as one field.  The
# factor is discontinuous at r = 0, so the two differ only where it is not
# resolved, r < h; that region's share of <1/r> in the 1s state is
# 1 - exp(-2h/a)(1 + 2h/a).
def unresolved_share(spacing, bohr_radius):
    x = spacing / bohr_radius
    return 1.0 - math.exp(-2.0 * x) * (1.0 + 2.0 * x)


HERMITIAN_BOUND = 1e-12


def shift_matrix_failures(oracle, solver, spacing, bohr_radius):
    """Checks of the 4x4 first-order shift matrix over the spin basis.

    ``solver`` holds the same matrix elements taken with the solver's own
    interaction operator on the oracle's states.
    """
    fails = []
    scale = float(np.max(np.abs(oracle)))
    herm = float(np.max(np.abs(oracle - oracle.conj().T)))
    if not herm <= HERMITIAN_BOUND * scale:
        fails.append(f"shift matrix not Hermitian: {herm:.3e} on elements of {scale:.3e}")
        return fails
    ev = np.linalg.eigvalsh(oracle)
    gap = ev[1] - ev[0]
    spread = ev[3] - ev[1]
    if not (gap > 0 and spread <= SPLIT_SHARE * gap):
        fails.append(f"shifts {ev.tolist()} do not split 1+3")
    share = unresolved_share(spacing, bohr_radius)
    diff = float(np.max(np.abs(solver - oracle)))
    if not diff <= share * scale:
        fails.append(f"solver elements differ by {diff:.3e} > {share:.3f} * {scale:.3e}")
    ev_s = np.linalg.eigvalsh(0.5 * (solver + solver.conj().T))
    if not abs(ev_s[0] - ev[0]) <= share * abs(ev[0]):
        fails.append(f"singlet shift {ev[0]!r} (oracle) vs {ev_s[0]!r} (solver)")
    return fails
