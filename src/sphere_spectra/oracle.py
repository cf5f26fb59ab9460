"""Independent eigenvalue oracle: fixed-step RK4 shooting of the differential
systems across [-x0, x0], inside the singular points x = +-1.

Each system is y' = (A0(x) + mu A1(x)) y, so one RK4 step is exactly the
real matrix polynomial T_n(mu) = sum_{j<=4} mu^j C_{n,j}.  Each point's
trajectories are orthonormalized at every checkpoint, which divides the
residual by a positive factor (kept as its log10): its zeros and signs stay.
A step count at which h |eig(A0(x) + mu A1(x))| leaves RK4's real stability
interval somewhere on the step grid is refused before integrating, at mu = 0
and at the largest |mu| of the first batch (a scan's first is its grid).

For k != 0, trajectories from (Psi, Psi', Phi, Phi') = (0, 0, 1, 0) and
(0, 0, 0, 1) span the solutions obeying the left boundary conditions; the
residual is the 2x2 determinant of their (Psi, Psi') at +x0.  For k = 0 one
trajectory from (Psi, Psi', Phi) = (0, 0, 1) gives the residual Psi'(x0);
chi uses (chi, chi') = (0, 1) and chi(x0).  Complex roots are validated by
residual magnitude in the rootfinder, not here.
"""

from __future__ import annotations

import numpy as np

from .core import NonFiniteError, SpectralParams

RENORM_CHECK_EVERY = 100
RK4_STABLE = 2.78       # RK4 is stable on about [-2.785, 0] of the real axis


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


def _problem(params: SpectralParams, which: str, n_steps: int) -> str:
    """Problem name: "chi" on request, else "k" or "k0"; stable at mu = 0."""
    if not 0 < params.x0 < 1:
        raise ValueError(f"shooting requires 0 < x0 < 1, got {params.x0}")
    if n_steps < 2:
        raise ValueError(f"shooting needs at least 2 steps, got {n_steps}")
    if which not in ("auto", "chi"):
        raise ValueError(f"which must be 'auto' or 'chi', got {which!r}")
    problem = "chi" if which == "chi" else "k0" if params.k == 0 else "k"
    _check_steps(params, problem, n_steps, 0.0)
    return problem


def _check_steps(params: SpectralParams, problem: str, n_steps: int, mu):
    """Refuse n_steps when h * max |eig(A0(x) + mu A1(x))| over the step
    grid exceeds RK4_STABLE, naming the least step count that passes."""
    def stiffness(n):
        h = 2.0 * params.x0 / n
        x = -params.x0 + np.arange(n + 1) * h
        a0, a1 = _PROBLEMS[problem][2](params, x, 1.0 - x * x)
        return h * float(np.abs(np.linalg.eigvals(a0 + mu * a1)).max())
    worst = stiffness(n_steps)
    if worst > RK4_STABLE:
        # the radius peaks at x = +-x0, on every grid: h * it falls as 1/n
        least = int(np.ceil(n_steps * worst / RK4_STABLE))
        while stiffness(least) > RK4_STABLE:
            least += 1
        raise ValueError(
            f"RK4 is unstable: h * max |eig(A0(x) + mu A1(x))| = "
            f"{worst:.4g} at {n_steps} steps and |mu| = {abs(mu):.4g} "
            f"exceeds {RK4_STABLE}; use --steps {least} or more")


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


def shoot_functional(params: SpectralParams, n_steps: int = 2000,
                     which: str = "auto"):
    """Vectorized boundary residual for the root finder.  which: "auto"
    picks the k != 0 or k = 0 system from params, "chi" the transformed
    problem with chi(+-x0) = 0.  The first call checks its largest |mu|."""
    problem = _problem(params, which, n_steps)
    checked = False

    def residual(s):
        nonlocal checked
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        if not checked:
            mu = -s * (s + 1)
            _check_steps(params, problem, n_steps,
                         np.real_if_close(mu[np.abs(mu).argmax()]))
            checked = True
        return _values(params, problem, s, n_steps)[0]
    return residual
