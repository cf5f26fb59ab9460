"""Independent eigenvalue oracle: shooting integration of the differential
systems across [-x0, x0] by fixed-step RK4 (the singular points x = +-1 lie
outside; fixed steps keep the Richardson error estimate clean).

Each system is y' = (A0(x) + mu A1(x)) y, so one RK4 step is exactly the
real matrix polynomial T_n(mu) = sum_{j<=4} mu^j C_{n,j}.  Each point's
trajectories are orthonormalized at every checkpoint, which divides the
residual by a positive factor (kept as its log10): its zeros and signs stay.
A step count at which h |eig A0(x)| leaves RK4's real stability interval
somewhere on the step grid is refused before integrating.

For k != 0, trajectories from (Psi, Psi', Phi, Phi') = (0, 0, 1, 0) and
(0, 0, 0, 1) span the solutions obeying the left boundary conditions; the
residual is the 2x2 determinant of their (Psi, Psi') at +x0.  For k = 0 one
trajectory from (Psi, Psi', Phi) = (0, 0, 1) gives the residual Psi'(x0);
chi uses (chi, chi') = (0, 1) and chi(x0).  Complex roots are validated by
residual magnitude in the rootfinder, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError, SpectralParams

RENORM_CHECK_EVERY = 100
RK4_STABLE = 2.78       # RK4 is stable on about [-2.785, 0] of the real axis


@dataclass(frozen=True)
class ShootResidual:
    """Right-boundary residual of the shooting integration: value of the
    trajectories orthonormalized at every checkpoint, log_scale the log10
    factor that took out, and the Richardson error against half the steps."""

    value: complex
    step_count: int
    richardson_error: float
    log_scale: float = 0.0


def _system_k(p: SpectralParams, x, om):
    """(A0, A1) of (1-x^2) Psi'' = Phi + 2x Psi' + k^2 Psi / (1-x^2) and
    (1-x^2) Phi'' = mu Phi + (2x - eps) Phi' + k^2 Phi / (1-x^2)."""
    a = np.zeros((2, *x.shape, 4, 4))
    a[0, ..., 0, 1] = a[0, ..., 2, 3] = 1.0
    a[0, ..., 1, 0] = a[0, ..., 3, 2] = p.abs_k ** 2 / (om * om)
    a[0, ..., 1, 1] = 2 * x / om
    a[0, ..., 1, 2] = a[1, ..., 3, 2] = 1 / om
    a[0, ..., 3, 3] = (2 * x - p.eps) / om
    return a


def _system_k0(p: SpectralParams, x, om):
    """(A0, A1) of (1-x^2) Psi'' = Phi + 2x Psi' and
    Phi' = mu Psi' - eps Phi / (1-x^2)."""
    a = np.zeros((2, *x.shape, 3, 3))
    a[0, ..., 0, 1] = a[1, ..., 2, 1] = 1.0
    a[0, ..., 1, 1] = 2 * x / om
    a[0, ..., 1, 2] = 1 / om
    a[0, ..., 2, 2] = -p.eps / om
    return a


def _system_chi(p: SpectralParams, x, om):
    """(A0, A1) of (1-x^2) chi'' = mu chi + 2x chi'
    + (eps^2 + 4 + 4 eps x) chi / (4 (1-x^2))."""
    a = np.zeros((2, *x.shape, 2, 2))
    a[0, ..., 0, 1] = 1.0
    a[0, ..., 1, 0] = (p.eps ** 2 + 4 + 4 * p.eps * x) / (4 * om * om)
    a[0, ..., 1, 1] = 2 * x / om
    a[1, ..., 1, 0] = 1 / om
    return a


# problem: (state dimension, start component of each trajectory, (A0, A1)
# at arrays x and 1 - x^2, residual of the end state r[component,
# trajectory]); each trajectory starts from the unit vector of its component
_PROBLEMS = {
    "k": (4, (2, 3), _system_k,
          lambda r: r[0, 0] * r[1, 1] - r[1, 0] * r[0, 1]),
    "k0": (3, (2,), _system_k0, lambda r: r[1, 0]),
    "chi": (2, (1,), _system_chi, lambda r: r[0, 0]),
}


def _problem(params: SpectralParams, which: str, n_steps: int,
             halved: bool = False) -> str:
    """Problem name for params: "chi" on request, else k != 0 or k = 0.
    The run at n_steps (with halved, also the one at half of them) must be
    stable; see _stiffness."""
    if not 0 < params.x0 < 1:
        raise ValueError(f"shooting requires 0 < x0 < 1, got {params.x0}")
    if n_steps < 2:
        raise ValueError(f"shooting needs at least 2 steps, got {n_steps}")
    if which not in ("auto", "chi"):
        raise ValueError(f"which must be 'auto' or 'chi', got {which!r}")
    problem = "chi" if which == "chi" else "k0" if params.k == 0 else "k"
    runs = (lambda n: (n, max(2, n // 2))) if halved else (lambda n: (n,))
    worst, n = max((_stiffness(params, problem, m), m)
                   for m in runs(n_steps))
    if worst > RK4_STABLE:
        # |eig A0| peaks at x = +-x0, which every step grid holds, so
        # h * max |eig A0| falls as 1/n; the half run is the stiffer one
        least = int(np.ceil(n * worst / RK4_STABLE)) * (n_steps // n)
        while max(_stiffness(params, problem, m)
                  for m in runs(least)) > RK4_STABLE:
            least += 1
        raise ValueError(
            f"RK4 is unstable: h * max |eig A0(x)| = {worst:.4g} at {n} "
            f"steps exceeds {RK4_STABLE}; use --steps {least} or more")
    return problem


def _stiffness(params: SpectralParams, problem: str, n_steps: int) -> float:
    """h times the largest spectral radius of A0(x) over the grid of
    n_steps steps across [-x0, x0]."""
    h = 2.0 * params.x0 / n_steps
    x = -params.x0 + np.arange(n_steps + 1) * h
    a0 = _PROBLEMS[problem][2](params, x, 1.0 - x * x)[0]
    return h * float(np.abs(np.linalg.eigvals(a0)).max())


def _step_maps(system, params, x, h):
    """RK4 step maps of the steps starting at x, the staged RK4 applied to
    the identity: real C of shape (steps, dim, 5 dim) whose column blocks
    are the coefficients of T_n(mu) = sum_j mu^j C[n, :, j dim:(j+1) dim]."""
    xs = np.stack([x, x + h / 2, x + h])
    a = system(params, xs, 1.0 - xs * xs)
    dim = a.shape[-1]
    eye = np.eye(dim, 5 * dim)      # the polynomial I + 0 mu + ...

    def times(stage, t):
        # (A0 + mu A1) t for a polynomial t of degree below 4
        out = a[0, stage] @ t
        out[..., dim:] += a[1, stage] @ t[..., :-dim]
        return out
    k1 = times(0, eye)
    k2 = times(1, eye + (h / 2) * k1)
    k3 = times(1, eye + (h / 2) * k2)
    k4 = times(2, eye + h * k3)
    return eye + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _values(params: SpectralParams, problem: str, s, n_steps):
    """Residuals at s and their log10 orthonormalization factors; the state
    (dim, trajectories * points) is advanced by one checkpoint chunk of step
    maps at a time, one real product with the state times powers of mu."""
    dim, starts, system, residual = _PROBLEMS[problem]
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    n = len(starts)
    traj = np.zeros((dim, n, s.size), dtype=complex)
    traj[list(starts), range(n)] = 1.0
    y, scale = traj.reshape(dim, -1), np.zeros(s.size)
    powers = (np.tile(-s * (s + 1), n) ** np.arange(5)[:, None])[:, None]
    stacked = np.empty((5, dim, y.shape[1]), dtype=complex)
    y_real, stacked_real = y.view(float), stacked.view(float).reshape(
        5 * dim, -1)
    h = 2.0 * params.x0 / n_steps
    # an overflow is reported by the NonFiniteError below, not by numpy
    with np.errstate(all="ignore"):
        for start in range(0, n_steps, RENORM_CHECK_EVERY):
            steps = np.arange(start, min(start + RENORM_CHECK_EVERY, n_steps))
            for c in _step_maps(system, params, -params.x0 + steps * h, h):
                np.multiply(y, powers, out=stacked)
                np.matmul(c, stacked_real, out=y_real)
            for j in range(n):      # Gram-Schmidt on each point's trajectories
                for q in traj[:, :j].swapaxes(0, 1):
                    traj[:, j] -= (q.conj() * traj[:, j]).sum(0) * q
                norm = np.linalg.norm(traj[:, j], axis=0)
                traj[:, j] /= norm
                scale += np.log10(norm)
        value = residual(traj)
    if not (np.isfinite(value).all() and np.isfinite(scale).all()):
        raise NonFiniteError("shooting state became non-finite")
    return value, scale


def shoot(params: SpectralParams, s: complex, n_steps: int = 2000,
          which: str = "auto") -> ShootResidual:
    """Boundary residual at spectral coordinate s, with a Richardson error
    estimate from a run at half the number of steps.

    which: "auto" picks the k != 0 or k = 0 system from params (k = 0
    requires mu != 0); "chi" selects the transformed self-adjoint problem
    with Dirichlet conditions chi(+-x0) = 0 (params.k ignored).
    """
    problem = _problem(params, which, n_steps, halved=True)
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
    """Vectorized residual for the root finder; which as in shoot."""
    problem = _problem(params, which, n_steps)
    return lambda s: _values(params, problem, s, n_steps)[0]
