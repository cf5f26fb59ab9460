"""Independent checks on the CSV tables the workload operations write.

Nothing here calls sphere_spectra: the tables are read back from disk and
judged against a closed form built with mpmath, a separate RK4 shooting
integration, and properties the spectrum must have.
"""

from __future__ import annotations

import csv
import json

import mpmath
import numpy as np

# half-width of the interval across which a reported root must change sign
DELTA = 1e-7


def read_rows(path) -> list:
    """Rows of a CLI table with param and s as numbers."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"param": float(r["param"]),
             "s": complex(float(r["re_s"]), float(r["im_s"]))} for r in rows]


def read_events(path) -> list:
    with open(path) as fh:
        return json.load(fh)["events"]


def re_mu(s: complex) -> float:
    """Re mu for mu = -s(s+1), recomputed from s."""
    return -(s.real * s.real - s.imag * s.imag + s.real)


def closed_form_det(k: int, x0: float, s: float):
    """Truncated-layer determinant at eps = 0, k != 0, from closed forms.

    At eps = 0 the vorticity solves the associated Legendre equation of
    degree s and order k, so Phi = P_s^k or Q_s^k (Ferrers functions), and
    Psi = Phi / mu plus the two homogeneous solutions ((1+x)/(1-x))^(k/2)
    and ((1-x)/(1+x))^(k/2).  The rows are Psi and Psi' at +x0 and -x0
    (the constant 1/mu factor is dropped); derivatives use
    (1 - x^2) dP_s^k/dx = (s + k) P_{s-1}^k - s x P_s^k, likewise for Q.
    """
    with mpmath.workdps(20):
        s = mpmath.mpf(s)
        rows = []
        for x in (mpmath.mpf(x0), -mpmath.mpf(x0)):
            om = 1 - x * x
            cols, dcols = [], []
            for fn in (mpmath.legenp, mpmath.legenq):
                f = fn(s, k, x, type=2)
                f1 = fn(s - 1, k, x, type=2)
                cols.append(f)
                dcols.append(((s + k) * f1 - s * x * f) / om)
            g = ((1 + x) / (1 - x)) ** (mpmath.mpf(k) / 2)
            rows.append(cols + [g, 1 / g])
            rows.append(dcols + [k * g / om, -k / (g * om)])
        return mpmath.det(mpmath.matrix(rows))


def closed_form_brackets(k: int, x0: float, s: float) -> bool:
    """The closed-form determinant changes sign across s +- DELTA."""
    return closed_form_det(k, x0, s - DELTA) * \
        closed_form_det(k, x0, s + DELTA) < 0


def shoot_det(k: int, eps: float, x0: float, s, n_steps: int = 2000):
    """Right-boundary 2x2 determinant of the k != 0 system by classical RK4
    from -x0 to x0, one column per real s.

    State (Psi, Psi', Phi, Phi') with
      (1-x^2) Psi'' = Phi + 2x Psi' + k^2 Psi / (1-x^2),
      (1-x^2) Phi'' = mu Phi + (2x - eps) Phi' + k^2 Phi / (1-x^2),
    mu = -s(s+1); the two trajectories start from Psi = Psi' = 0 with
    (Phi, Phi') = (1, 0) and (0, 1).
    """
    s = np.asarray(s, dtype=float)
    mu = -s * (s + 1)
    k2 = float(k * k)
    y = np.zeros((4, 2, s.size))
    y[2, 0] = 1.0
    y[3, 1] = 1.0

    def rhs(x, y):
        om = 1.0 - x * x
        return np.stack([
            y[1],
            (y[2] + 2 * x * y[1] + k2 * y[0] / om) / om,
            y[3],
            (mu * y[2] + (2 * x - eps) * y[3] + k2 * y[2] / om) / om])

    h = 2.0 * x0 / n_steps
    for i in range(n_steps):
        x = -x0 + i * h
        r1 = rhs(x, y)
        r2 = rhs(x + h / 2, y + (h / 2) * r1)
        r3 = rhs(x + h / 2, y + (h / 2) * r2)
        r4 = rhs(x + h, y + h * r3)
        y = y + (h / 6) * (r1 + 2 * r2 + 2 * r3 + r4)
    return y[0, 0] * y[1, 1] - y[1, 0] * y[0, 1]


def shooting_brackets(k: int, eps: float, x0: float, roots) -> list:
    """Per root: the shooting determinant changes sign across s +- DELTA."""
    roots = np.asarray(roots, dtype=float)
    if roots.size == 0:
        return []
    vals = shoot_det(k, eps, x0, np.concatenate([roots - DELTA,
                                                 roots + DELTA]))
    lo, hi = vals[:roots.size], vals[roots.size:]
    return list(lo * hi < 0)


def shooting_root_count(k: int, eps: float, x0: float, s_min: float,
                        s_max: float, step: float = 0.01) -> int:
    """Sign changes of the shooting determinant on a grid over
    [s_min, s_max], one fifth of the CLI's default scan step: the number of
    real roots a complete table of that window must hold."""
    vals = shoot_det(k, eps, x0, np.arange(s_min, s_max + step / 2, step))
    return int(np.count_nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))


def match(a: list, b: list, tol: float) -> str | None:
    """None when the two sorted root lists have equal length and agree
    pairwise within tol; otherwise a description of the mismatch."""
    a, b = sorted(a, key=lambda z: (z.real, z.imag)), \
        sorted(b, key=lambda z: (z.real, z.imag))
    if len(a) != len(b):
        return f"{len(a)} roots against {len(b)}"
    worst = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    if worst > tol:
        return f"roots differ by {worst:.1e} > {tol:.0e}"
    return None
