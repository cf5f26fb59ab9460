"""Independent eigenvalue oracle: shooting integration of the differential
systems across [-x0, x0].

The systems are regular on the closed interval (the singular points sit at
x = +-1, outside), so classical fixed-step RK4 is used; fixed steps keep
the Richardson error estimate clean.  State magnitudes are renormalized
jointly at checkpoints if they threaten to overflow, which rescales the
boundary residual without moving its zeros.

For k != 0, two trajectories started from (Psi, Psi', Phi, Phi') =
(0, 0, 1, 0) and (0, 0, 0, 1) span the solutions obeying the left boundary
conditions; the residual is the 2x2 determinant of their (Psi, Psi') values
at +x0.  For k = 0 a single trajectory from (Psi, Psi', Phi) = (0, 0, 1)
suffices and the residual is Psi'(x0); the second-order equation for the
transformed variable chi uses (chi, chi') = (0, 1) and residual chi(x0).

Only the real spectrum is validated here; complex roots are validated by
residual magnitude in the rootfinder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError, SpectralParams

RENORM_THRESHOLD = 1e100
RENORM_CHECK_EVERY = 100


@dataclass(frozen=True)
class ShootResidual:
    """Right-boundary residual of the shooting integration.

    value is the (renormalized) residual; log_scale the log10 factor taken
    out by renormalization; richardson_error compares against a run with
    half the number of steps.
    """

    value: complex
    step_count: int
    richardson_error: float
    log_scale: float = 0.0


def _integrate(rhs, y0, x0, n_steps):
    """RK4 for a stacked complex state of shape (dim, ...) from -x0 to x0.

    Each state vector y[:, j...] is renormalized on its own.  Returns
    (final state, log10 renormalization factor of each state vector).
    """
    y = y0.astype(complex)
    scale = np.zeros(y.shape[1:])
    h = 2.0 * x0 / n_steps
    x = -x0
    for i in range(n_steps):
        k1 = rhs(x, y)
        k2 = rhs(x + h / 2, y + (h / 2) * k1)
        k3 = rhs(x + h / 2, y + (h / 2) * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
        if (i + 1) % RENORM_CHECK_EVERY == 0:
            mags = np.abs(y).max(axis=0)
            big = mags > RENORM_THRESHOLD
            if np.any(big):
                factor = np.where(big, mags, 1.0)
                y = y / factor
                scale += np.log10(factor)
    if not np.all(np.isfinite(y)):
        raise NonFiniteError("shooting state became non-finite")
    return y, scale


def _rhs_k(k2, eps, mu):
    def rhs(x, y):
        om = 1.0 - x * x
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = (y[2] + 2 * x * y[1] + k2 * y[0] / om) / om
        out[2] = y[3]
        out[3] = (mu * y[2] + (2 * x - eps) * y[3] + k2 * y[2] / om) / om
        return out
    return rhs


def _rhs_k0(eps, mu):
    def rhs(x, y):
        om = 1.0 - x * x
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = (y[2] + 2 * x * y[1]) / om
        out[2] = mu * y[1] - eps * y[2] / om
        return out
    return rhs


def _rhs_chi(eps, mu):
    def rhs(x, y):
        om = 1.0 - x * x
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = (mu * y[0] + 2 * x * y[1]
                  + (eps * eps + 4 + 4 * eps * x) * y[0] / (4 * om)) / om
        return out
    return rhs


# problem: (state dimension, start component of each trajectory, rhs
# factory, residual of the end state r[component, trajectory]); each
# trajectory starts from the unit vector of its component
_PROBLEMS = {
    "k": (4, (2, 3),
          lambda p, mu: _rhs_k(p.abs_k ** 2, p.eps, mu),
          lambda r: r[0, 0] * r[1, 1] - r[1, 0] * r[0, 1]),
    "k0": (3, (2,), lambda p, mu: _rhs_k0(p.eps, mu), lambda r: r[1, 0]),
    "chi": (2, (1,), lambda p, mu: _rhs_chi(p.eps, mu), lambda r: r[0, 0]),
}


def _problem(params: SpectralParams, which: str) -> str:
    """Problem name for params: "chi" on request, else k != 0 or k = 0."""
    if not 0 < params.x0 < 1:
        raise ValueError(f"shooting requires 0 < x0 < 1, got {params.x0}")
    if which == "chi":
        return "chi"
    if which != "auto":
        raise ValueError(f"which must be 'auto' or 'chi', got {which!r}")
    return "k0" if params.k == 0 else "k"


def _values(params: SpectralParams, problem: str, s, n_steps):
    """Residuals at a batch of s and their log10 renormalization factors.

    All start trajectories are integrated together in one state of shape
    (dim, trajectories, points).
    """
    dim, starts, make_rhs, residual = _PROBLEMS[problem]
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    y = np.zeros((dim, len(starts), s.size), dtype=complex)
    y[list(starts), range(len(starts))] = 1.0
    r, scale = _integrate(make_rhs(params, -s * (s + 1)), y, params.x0,
                          n_steps)
    return residual(r), scale.sum(axis=0)


def shoot(params: SpectralParams, s: complex, n_steps: int = 2000,
          which: str = "auto") -> ShootResidual:
    """Boundary residual at spectral coordinate s, with a Richardson error
    estimate from a run at half the number of steps.

    which: "auto" picks the k != 0 or k = 0 system from params (k = 0
    requires mu != 0); "chi" selects the transformed self-adjoint problem
    with Dirichlet conditions chi(+-x0) = 0 (params.k ignored).
    """
    problem = _problem(params, which)
    if problem == "k0" and s * (s + 1) == 0:
        raise ValueError("mu = 0 is the trivial eigenvalue")
    v, sc = _values(params, problem, s, n_steps)
    v_half, sc_half = _values(params, problem, s, max(2, n_steps // 2))
    # RK4: halving the step cuts the error ~16x, so the difference between
    # the two runs is ~15x the fine-run error
    err = abs(v[0] * 10.0 ** sc[0] - v_half[0] * 10.0 ** sc_half[0]) / 15.0
    return ShootResidual(complex(v[0]), n_steps, float(err), float(sc[0]))


def shoot_functional(params: SpectralParams, n_steps: int = 2000,
                     which: str = "auto"):
    """Vectorized residual functional for the root finder; which as in
    shoot."""
    problem = _problem(params, which)
    return lambda s: _values(params, problem, s, n_steps)[0]

