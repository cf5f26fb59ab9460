"""Independent eigenvalue oracle: fixed-step RK4 shooting of the differential
systems across [-x0, x0], inside the singular points x = +-1.

Each system is y' = (A0(x) + mu A1(x)) y, so one RK4 step is exactly the real
matrix polynomial T_n(mu) = sum_{j<=4} mu^j C_{n,j}.  A functional composes
each block of steps into one, once, to the least degree float64 tells from
the whole; a call evaluates it once per point and advances all trajectories
in one state, orthonormalized at every checkpoint (the residual's positive
factor is kept as its log10).  A step count whose h |eig(A0 + mu A1)| on the
grid leaves RK4's real stability interval is refused, at mu = 0 and at each
call's largest |mu| past those checked; that stiffness sets the blocks too.

For k != 0, trajectories from (Psi, Psi', Phi, Phi') = (0, 0, 1, 0) and
(0, 0, 0, 1) span the solutions obeying the left boundary conditions; the
residual is the 2x2 determinant of their (Psi, Psi') at +x0.  k = 0 runs
the self-adjoint chi problem: one trajectory from (chi, chi') = (0, 1),
residual chi(x0).  There Psi enters through Psi' alone, (1-x^2) Psi'' =
Phi + 2x Psi' and Phi' = mu Psi' - eps Phi / (1-x^2), with Psi'(+-x0) = 0
(a constant Psi is the trivial mu = 0).  With g = ((1+x)/(1-x))^(eps/4),
chi = g sqrt(1-x^2) Psi' and phi = g Phi obey the transform pair that
analytic.darboux_residual checks, whose composition is chi's equation.
g sqrt(1-x^2) > 0 on [-x0, x0], so chi vanishes at +-x0 just where Psi'
does: chi's Dirichlet spectrum is the nontrivial k = 0 spectrum.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import NonFiniteError, SpectralParams

RENORM_CHECK_EVERY = 100
RK4_STABLE = 2.78       # RK4 is stable on about [-2.785, 0] of the real axis
BLOCK_STIFF = 4.0       # most block length * h * max |eig|


def _system_k(p: SpectralParams, x, om):
    """(A0, A1) of (1-x^2) Psi'' = Phi + 2x Psi' + k^2 Psi / (1-x^2) and
    (1-x^2) Phi'' = mu Phi + (2x - eps) Phi' + k^2 Phi / (1-x^2)."""
    a = np.zeros((2, *x.shape, 4, 4))
    a[0, ..., 0, 1] = a[0, ..., 2, 3] = 1.0
    a[0, ..., 1, 0] = a[0, ..., 3, 2] = p.abs_k ** 2 / (om * om)
    a[0, ..., 1, 2] = a[1, ..., 3, 2] = 1 / om
    a[0, ..., 1, 1], a[0, ..., 3, 3] = 2 * x / om, (2 * x - p.eps) / om
    return a


def _system_chi(p: SpectralParams, x, om):
    """(A0, A1) of (1-x^2) chi'' = mu chi + 2x chi'
    + (eps^2 + 4 + 4 eps x) chi / (4 (1-x^2))."""
    a = np.zeros((2, *x.shape, 2, 2))
    a[0, ..., 0, 1] = 1.0
    a[0, ..., 1, 0] = (p.eps ** 2 + 4 + 4 * p.eps * x) / (4 * om * om)
    a[0, ..., 1, 1], a[1, ..., 1, 0] = 2 * x / om, 1 / om
    return a


# problem: (dim, start component of each trajectory (a unit vector), (A0, A1)
# at arrays x and 1 - x^2, residual of the end state r[component, trajectory])
_PROBLEMS = {
    "k": (4, [2, 3], _system_k,
          lambda r: r[0, 0] * r[1, 1] - r[1, 0] * r[0, 1]),
    "chi": (2, [1], _system_chi, lambda r: r[0, 0]),
}


def _problem(params: SpectralParams, n_steps: int) -> str:
    """Problem name: "chi" for k = 0, else "k"."""
    if not 0 < params.x0 < 1:
        raise ValueError(f"shooting requires 0 < x0 < 1, got {params.x0}")
    if n_steps < 2:
        raise ValueError(f"shooting needs at least 2 steps, got {n_steps}")
    return "chi" if params.k == 0 else "k"


def _check_steps(params: SpectralParams, problem: str, n_steps: int, mu):
    """h * max |eig(A0(x) + mu A1(x))| on the step grid, refused above
    RK4_STABLE with the least step count that passes.  A0 + mu A1 is block-
    triangular: its 2x2 diagonal blocks b have eig t +- sqrt(t^2 - det b),
    t = trace b / 2."""
    dim, _, system, _ = _PROBLEMS[problem]

    def stiffness(n):
        h = 2.0 * params.x0 / n
        x = -params.x0 + np.arange(n + 1) * h
        a0, a1 = system(params, x, 1.0 - x * x)
        a = a0 + mu * a1
        b = np.stack([a[:, i:i + 2, i:i + 2] for i in range(0, dim, 2)])
        t = (b[..., 0, 0] + b[..., 1, 1]) / 2
        r = np.sqrt(t * t - b[..., 0, 0] * b[..., 1, 1]
                    + b[..., 0, 1] * b[..., 1, 0] + 0j)
        return h * float(np.maximum(abs(t + r), abs(t - r)).max())
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
    return worst


def _step_maps(system, params, x, h):
    """RK4 step maps of the steps starting at x: real C of shape (*x.shape,
    dim, 5 dim), T_n(mu) = sum_j mu^j C[n, :, j dim:(j+1) dim]."""
    xs = np.stack([x, x + h / 2, x + h])
    a = system(params, xs, 1.0 - xs * xs)
    dim = a.shape[-1]
    eye = np.eye(dim, 5 * dim)      # the polynomial I + 0 mu + ...
    k = np.concatenate([*a[:, 0], np.zeros(a.shape[2:-1] + (3 * dim,))], -1)
    out = eye + (h / 6) * k         # k1 = A0 + mu A1 at x; each next k is
    for stage, f, w in ((1, h / 2, h / 3), (1, h / 2, h / 3), (2, h, h / 6)):
        t = eye + f * k             # (A0 + mu A1) t at its stage's x, of
        k = a[0, stage] @ t         # degree below 4 until k4
        k[..., dim:] += a[1, stage] @ t[..., :-dim]
        out += w * k
    return out


def _blocks(params, problem: str, n_steps: int, block: int, degree: int):
    """The step maps composed block at a time, all at once, exactly up to
    mu^degree: flat[c, a, (b, i, j)] is block b of checkpoint chunk c's mu^a
    coefficient at row i, column j.  Identity steps pad chunks to blocks."""
    dim, _, system, _ = _PROBLEMS[problem]
    h, cols = 2.0 * params.x0 / n_steps, (degree + 1) * dim
    slot = np.arange(0, RENORM_CHECK_EVERY, block)[:, None] + np.arange(block)
    n = np.arange(0, n_steps, RENORM_CHECK_EVERY)[:, None, None] + slot
    pad = ((slot >= RENORM_CHECK_EVERY) | (n >= n_steps)).reshape(-1, block)
    x = -params.x0 + h * np.where(pad, 0, n.reshape(pad.shape))
    # T q = [T_0 .. T_4] @ shifted, its row block a mu^a q: a window of buf
    buf = np.zeros((len(x), dim, 4 * dim + cols))
    q, shifted = buf[..., 4 * dim:], np.empty((len(x), 5 * dim, cols))
    q[..., :dim] = np.eye(dim)
    window = sliding_window_view(buf, cols, 2).swapaxes(1, 2)[:, 4 * dim::-dim]
    slab = max(1, 12000 // (5 * dim * dim * len(x)))  # temporaries ~100 KB
    for t0 in range(0, block, slab):
        c = _step_maps(system, params, x[:, t0:t0 + slab], h)
        c[pad[:, t0:t0 + slab]] = np.eye(dim, 5 * dim)
        for t in range(c.shape[1]):
            shifted.reshape(window.shape)[:] = window
            np.matmul(c[:, t], shifted, out=q)
    q = q.reshape(len(n), -1, dim, degree + 1, dim)
    return np.moveaxis(q, 3, 1).reshape(len(n), degree + 1, -1)


def _kept(blocks, top: float) -> bool:
    """Whether at |mu| = top each block entry's top two degrees are below
    2**-60 of its summed term magnitudes (all over max(top, 1)**degree)."""
    d = blocks.shape[1] - 1
    terms = abs(blocks) * top ** (np.arange(d + 1.0) - d * (top > 1))[:, None]
    return bool((terms[:, -2:].max(1) <= 2.0 ** -60 * terms.sum(1)).all())


def _values(problem: str, s, blocks):
    """Residuals at s and their log10 orthonormalization factors.  Per chunk,
    one product evaluates every block at every point, each block advances the
    state (points, dim, trajectories) in one product, then Gram-Schmidt."""
    dim, starts, _, residual = _PROBLEMS[problem]
    s = np.atleast_1d(np.asarray(s))
    s = s.astype(np.result_type(s, float), copy=False)
    y = np.zeros((s.size, dim, len(starts)), s.dtype) + np.eye(dim)[:, starts]
    scale = np.zeros(s.size)
    # an overflow is reported by the NonFiniteError below, not by numpy
    with np.errstate(all="ignore"):
        powers = (-s * (s + 1))[:, None] ** np.arange(len(blocks[0]))
        for flat in blocks:
            maps = (powers @ flat).reshape(s.size, -1, dim, dim)
            for b in range(maps.shape[1]):
                y = maps[:, b] @ y
            for j in range(len(starts)):    # Gram-Schmidt on each point
                for q in y[..., :j].transpose(2, 0, 1):
                    y[..., j] -= (q.conj() * y[..., j]).sum(1)[:, None] * q
                norm = np.linalg.norm(y[..., j], axis=1)
                y[..., j] /= norm[:, None]
                scale += np.log10(norm)
        value = residual(np.moveaxis(y, 0, -1))
    if not (np.isfinite(value).all() and np.isfinite(scale).all()):
        raise NonFiniteError("shooting state became non-finite")
    return value, scale


def shoot_functional(params: SpectralParams, n_steps: int = 2000):
    """Vectorized boundary residual for the root finder: the raw boundary
    determinant over 10**L, L = meta["log_scale_ref"] the largest log10 factor
    of the first call (meta also has block, degree and h_max_eig).  The
    problem is the k != 0 system, or chi for k = 0."""
    problem = _problem(params, n_steps)
    meta = dict(h_max_eig=_check_steps(params, problem, n_steps, 0.0))
    top, blocks = 0.0, None

    def residual(s):
        nonlocal top, blocks
        s = np.atleast_1d(np.asarray(s))
        mu = max(-s * (s + 1), key=abs)
        if grew := abs(mu) > top:
            top, worst = abs(mu), _check_steps(params, problem, n_steps, mu)
            meta["h_max_eig"] = max(meta["h_max_eig"], worst)
        # a block's expansion in mu cancels about exp(block * stiffness);
        # its degree is the least of 16, 32, ... that _kept passes, or 4 block
        block = min(int(BLOCK_STIFF / meta["h_max_eig"]) or 1,
                    RENORM_CHECK_EVERY)
        d = meta["degree"] if block == meta.get("block") else 0
        while not d or grew and d < 4 * block and not _kept(blocks, top):
            d = min(max(16, 2 * d), 4 * block)
            blocks = _blocks(params, problem, n_steps, block, d)
        meta.update(block=block, degree=d)
        value, scale = _values(problem, s, blocks)
        ref = meta.setdefault("log_scale_ref", float(scale.max()))
        low = -300 - np.log10(abs(value), where=value != 0, out=0 * scale)
        return value * 10.0 ** np.clip(scale - ref, low, 300)  # |value| <= 1
    residual.meta = meta
    return residual
