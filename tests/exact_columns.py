"""Independent references for the boundary matrices: direct summation of
the series recurrences, one unit seed per column, in the arithmetic of s
(exact rationals with fractions.Fraction, or mpmath numbers), and the
roots of their determinants to 40 digits."""

import mpmath as mp


def exact_columns_k(k2, eps, x0, s, M):
    """Columns of A_k, one per unit seed (a0, b0, c0, d0)."""
    S = s * (s + 1)
    zero = S * 0
    cols = []
    for j in range(4):
        a = [zero] * (M + 1)
        b = [zero] * (M + 1)
        c = [zero] * (M + 1)
        d = [zero] * (M + 1)
        (a[0], b[0], c[0], d[0]) = (zero + (i == j) for i in range(4))
        a[1] = ((k2 - S) * a[0] - eps * b[0]) / 2
        b[1] = ((k2 + 2 - S) * b[0] - 2 * eps * a[1]) / 6
        c[1] = (k2 * c[0] + a[0]) / 2
        d[1] = ((k2 + 2) * d[0] + b[0]) / 6
        for m in range(M - 1):
            p, q = 2 * m + 2, 2 * m + 3
            a[m + 2] = ((k2 - S + 2 * p * p) * a[m + 1]
                        + (S - 2 * m * (2 * m + 1)) * a[m]
                        - eps * q * b[m + 1]
                        + eps * (2 * m + 1) * b[m]) / ((2 * m + 4) * (2 * m + 3))
            b[m + 2] = ((k2 - S + 2 * q * q) * b[m + 1]
                        + (S - (2 * m + 2) * (2 * m + 1)) * b[m]
                        - eps * (2 * m + 4) * a[m + 2]
                        + eps * p * a[m + 1]) / ((2 * m + 5) * (2 * m + 4))
            c[m + 2] = ((k2 + 2 * p * p) * c[m + 1]
                        - 2 * m * (2 * m + 1) * c[m]
                        + a[m + 1] - a[m]) / ((2 * m + 4) * (2 * m + 3))
            d[m + 2] = ((k2 + 2 * q * q) * d[m + 1]
                        - (2 * m + 2) * (2 * m + 1) * d[m]
                        + b[m + 1] - b[m]) / ((2 * m + 5) * (2 * m + 4))
        w = [x0 ** (2 * m) for m in range(M + 1)]
        cols.append([
            sum(c[m] * w[m] for m in range(M + 1)),
            sum(d[m] * w[m] for m in range(M + 1)),
            sum(2 * m * c[m] * w[m] for m in range(M + 1)),
            sum((2 * m + 1) * d[m] * w[m] for m in range(M + 1)),
        ])
    return cols


def exact_columns_k0(eps, x0, s, M):
    """Columns of A_0, one per free seed (a0, d0)."""
    S = s * (s + 1)
    zero = S * 0
    cols = []
    for j in range(2):
        a = [zero] * (M + 1)
        b = [zero] * (M + 1)
        c = [zero] * (M + 1)
        d = [zero] * (M + 1)
        a0, d0 = zero + (j == 0), zero + (j == 1)
        a[0], d[0] = a0, d0
        b[0] = -eps * a0 - S * d0
        for m in range(M):
            a[m + 1] = ((2 * m * (2 * m + 1) - S) * a[m]
                        - eps * (2 * m + 1) * b[m]) / ((2 * m + 2) * (2 * m + 1))
            b[m + 1] = (((2 * m + 1) * (2 * m + 2) - S) * b[m]
                        - eps * (2 * m + 2) * a[m + 1]) / ((2 * m + 3) * (2 * m + 2))
            c[m + 1] = (2 * m * (2 * m + 1) * c[m] + a[m]) / ((2 * m + 2) * (2 * m + 1))
            d[m + 1] = ((2 * m + 1) * (2 * m + 2) * d[m] + b[m]) / ((2 * m + 3) * (2 * m + 2))
        w = [x0 ** (2 * m) for m in range(M + 1)]
        cols.append([
            sum(2 * m * c[m] * w[m] for m in range(M + 1)),
            sum((2 * m + 1) * d[m] * w[m] for m in range(M + 1)),
        ])
    return cols


def exact_root(k, eps, x0, M, s, dps=40):
    """The root of the truncated determinant det A(s) next to s, to dps
    digits: secant steps from s in mpmath, real for real s.  eps and x0
    are taken at their float64 values, as the series takes them."""
    with mp.workdps(dps):
        eps, x0 = mp.mpf(eps), mp.mpf(x0)

        def det(z):
            cols = (exact_columns_k(k * k, eps, x0, z, M) if k
                    else exact_columns_k0(eps, x0, z, M))
            return mp.det(mp.matrix(cols))

        a = mp.mpf(s) if isinstance(s, float) else mp.mpc(s)
        b = a + 1e-9 * (1 + abs(a))
        fa, fb = det(a), det(b)
        for _ in range(20):
            a, fa, b = b, fb, b - fb * (b - a) / (fb - fa)
            if abs(b - a) < mp.mpf(10) ** (15 - dps) * abs(b):
                return b
            fb = det(b)
    raise ArithmeticError(f"no {dps}-digit root next to s = {s}")
