"""Root location for the determinant functions.

Real roots are found by grid scan plus guarded inverse interpolation on
the sign-change brackets, one F call per round for all of them (Brent
1973, ch. 4; see _refine_brackets), which closes each bracket below tol;
complex roots by Muller iteration (three-point quadratic interpolation,
derivative-free: the determinant is a black box and numerical derivatives
are noisy near coalescence), one batched loop whose seeds share each F
call and end with a Newton step averaged over a small circle.  The roots
a scan cannot see, close real ones and complex pairs, come from the count
of the window's region (contour), polished by Muller: in spectrum tables
(certify) and wherever a traced real branch is lost (trace_parameter);
both refuse a count that the roots they hold do not make up.
Trace samples lie only on the sweep values and inside the scan window.
Scans call F on float arrays, Muller and the count on complex.

A root's residual is the determinant magnitude at the root
(Muller: at its last iterate) scaled by its magnitude at the grid
neighbours (Muller: probe points), so it does not depend on the
determinant's overall size.  A root's error bounds its distance in s
from the true root: the closing bracket width, or the last Muller step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import contour
from .core import CountError, GridTooCoarseWarning, Root, canonicalize_s

# rounds of the bracket refiner and the Muller loop, read at call time
MAX_ITER = 80
RING = 8  # points on the circle around a converged Muller iterate


@dataclass(frozen=True)
class ScanConfig:
    """Scan interval on the canonical half-plane, grid step and
    refinement tolerance."""

    s_min: float = 0.0
    s_max: float = 8.0
    step: float = 0.05
    tol: float = 1e-10

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("s_min, s_max, step and tol must be finite")
        if self.s_min < -0.5:
            raise ValueError("s_min must be >= -0.5 (canonical half-plane)")
        if self.step <= 0 or self.tol <= 0:
            raise ValueError("step and tol must be positive")
        if self.step > self.s_max - self.s_min:
            raise ValueError("the scan window [s_min, s_max] must be at "
                             "least one step wide")
        if self.tol < 4 * math.ulp(max(abs(self.s_min), abs(self.s_max))):
            raise ValueError("tol must be at least 4 ulps of the window's "
                             "largest |s|: no bracket closes below that")


@dataclass
class CoalescenceEvent:
    """Two real branches merged at param and continued as a complex pair."""

    param: float
    branch_ids: tuple
    seed: complex


@dataclass
class Branch:
    """A root traced along a parameter sweep.  Left out of repr and ==, the
    tracer's live state: position s, status (real, pair or dead) and the
    movement ds over the parameter step dp of the last commit."""

    index: int
    samples: list = field(default_factory=list)   # (param value, Root)
    events: list = field(default_factory=list)
    counts: list = field(default_factory=list)  # certificates, see trace
    note: str = ""
    s: complex = field(default=0.0, repr=False, compare=False)
    status: str = field(default="real", repr=False, compare=False)
    ds: float = field(default=0.0, repr=False, compare=False)
    dp: float = field(default=0.0, repr=False, compare=False)

    def commit(self, p, dp, root):
        self.ds = root.s.real - self.s
        self.dp = dp
        self.s = root.s.real
        self.samples.append((p, root))

    def end(self, note):
        self.status, self.note = "dead", note


def _refine_brackets(F, s, f, tol):
    """Guarded inverse interpolation on sign-change brackets, one per row of
    s, f: its ends, their grid neighbours (nan if none), then four nan pool
    columns.  Each round's F call takes, per open bracket, the inverse-cubic
    estimate x through its four points of nonzero F nearest zero, guards at
    x -+ d (d its change from the quadratic through the nearest three,
    >= tol / 4) and the midpoint if its last round did not halve it; if x is
    not inside, the midpoint and quarter points.  Returns per bracket the end
    with the smaller |F|, that |F| and the final width (the error bound)."""
    s, f = s.tolist(), f.tolist()   # the pool: four nearest, then the new
    ends = [[p[0], p[1], q[0], q[1], True] for p, q in zip(s, f)]  # halved
    for _ in range(MAX_ITER):
        live = [i for i, (a, b, *_) in enumerate(ends)
                if b - a > tol and math.nextafter(a, b) < b]
        if not live:
            break
        near = np.argsort([[math.inf if v == 0 else abs(v) for v in f[i]]
                           for i in live], 1, kind="stable")[:, :4].tolist()
        for i, o in zip(live, near):
            (a, b, _, _, halved), w = ends[i], ends[i][1] - ends[i][0]
            p, fp = [s[i][m] for m in o], [f[i][m] for m in o]
            # s(F) at F = 0 in Lagrange form, as a correction to the nearest
            # point, summed left to right; a zero divisor makes x not finite
            lw = [[1.0 if m == j else v / q if (q := v - fp[j]) else math.inf
                   for m, v in enumerate(fp)] for j in range(4)]
            t3 = [(p[j] - p[0]) * math.prod(lw[j][:3]) for j in range(3)]
            t4 = [(p[j] - p[0]) * math.prod(lw[j]) for j in range(4)]
            x = p[0] + (t4[0] + t4[1] + t4[2] + t4[3])
            d = abs(x - p[0] - (t3[0] + t3[1] + t3[2]))
            inside, mid = a < x < b, a + w / 2
            x, d = (x, max(d, tol / 4)) if inside else (mid, w / 4)
            lo, hi = math.nextafter(a, b), math.nextafter(b, a)
            s[i], f[i] = p + [min(max(v, lo), hi) for v in (x, x - d, x + d, (
                math.nan if halved or not inside else mid))], fp
        fn = iter(np.real(F(np.array([v for i in live for v in s[i][4:]
                                      if v == v]))).tolist())
        pts = [ends[i][:2] + s[i][4:] for i in live]
        for i, o in zip(live, np.argsort(pts, 1, kind="stable").tolist()):
            f[i] += [next(fn) if v == v else math.nan for v in s[i][4:]]
            cs, cf = ([(e[:2] + v[4:])[m] for m in o]
                      for e, v in ((ends[i], s[i]), (ends[i][2:], f[i])))
            # shortest sign change or zero (the last point, b or nan, is none)
            k = min(range(5), key=lambda m: 0 if cf[m] == 0 else cs[m + 1]
                    - cs[m] if cf[m] < 0 < cf[m + 1] or cf[m] > 0 > cf[m + 1]
                    else math.inf)
            j, w = k + (cf[k] != 0), ends[i][1] - ends[i][0]
            ends[i] = [cs[k], cs[j], cf[k], cf[j], cs[j] - cs[k] <= w / 2]
    e = np.array(ends).reshape(-1, 5)
    return (np.where(abs(e[:, 2]) <= abs(e[:, 3]), e[:, 0], e[:, 1]),
            abs(e[:, 2:4]).min(1), e[:, 1] - e[:, 0])


def _dedupe(roots, spacing):
    """Collapse clusters closer than spacing, keeping the smallest residual."""
    out = []
    for r in sorted(roots, key=lambda r: (r.s.real, r.s.imag)):
        if out and abs(r.s - out[-1].s) < spacing:
            if r.residual < out[-1].residual:
                out[-1] = r
        else:
            out.append(r)
    return out


def scan_real_roots(F, cfg: ScanConfig, source: str = "series") -> list:
    """Real roots of F on [s_min, s_max].

    F must be real-valued on the real axis (true for the determinant
    functions: all recurrence inputs are real for real s).  Sign changes
    on the grid are bracketed and refined (see _refine_brackets); results
    are canonicalized, deduplicated, and carry a scaled residual and the
    closing bracket width as their error.
    """
    grid = np.arange(cfg.s_min, cfg.s_max + 0.5 * cfg.step, cfg.step)
    vals, side = np.real(F(grid)), []
    if not vals.all():
        # a root on a grid node hides a second one in a cell beside it; F at
        # tol off each such node, in one more call, gives them their signs
        side = np.clip(grid[vals == 0][:, None] + [-cfg.tol, cfg.tol],
                       grid[0], grid[-1]).ravel()
        order = np.argsort(grid := np.append(grid, side))
        grid, vals = grid[order], np.append(vals, np.real(F(side)))[order]
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if not idx.size and vals.all():
        return []
    near = np.full((idx.size, 8), -1)   # -1: the nan appended to the grid
    near[:, :4] = idx[:, None] + [0, 1, -1, 2]  # the ends, their neighbours
    s, f = (np.append(v, np.nan)[near] for v in (grid, vals))
    # a point beside a zero node is a sign, kept out of the interpolation
    f = np.where(np.isin(s, side), np.copysign(np.inf, f), f)
    refined, fabs, width = _refine_brackets(F, s, f, cfg.tol)
    resid = fabs / np.maximum(abs(vals[idx]), abs(vals[idx + 1]))  # grid ends
    roots = [Root(canonicalize_s(r), float(res), "real", source, float(err))
             for r, res, err in zip(refined, resid, width)]
    roots += [Root(canonicalize_s(grid[i]), 0.0, "real", source)
              for i in np.nonzero(vals == 0)[0]]
    roots = _dedupe(roots, 10 * cfg.tol)
    positions = sorted(r.s.real for r in roots)
    if any(b - a < cfg.step for a, b in zip(positions, positions[1:])):
        warnings.warn("two roots closer than one scan step; decrease step",
                      GridTooCoarseWarning)
    return roots


def refine_complex(F, seeds, tol: float = 1e-10, probe: float = 0.05) -> list:
    """Muller iteration from each complex seed until its update is below
    tol: one Root per seed, or None where the seed did not converge.

    The seeds share each F call: their start points, then per round the
    new iterates of the seeds still iterating.  A seed whose step falls
    below tol evaluates the iterate x it reaches, RING points on the
    circle |s - x| = r = 100 tol and three probes (x ± probe, x + i probe)
    in that round's call, and stops.  Its root is one Newton step from x:
    F(x) is the mean over x and the circle and F'(x) the circle's first
    Fourier coefficient over r, exact for polynomials of degree below RING
    and averaging out the rounding noise that near F's floor moves every
    iterate.  Where the second coefficient outweighs the first, as near a
    double root, the step would be noise and the root stays at x.  A root
    within max(r, 1e-9) of the real axis is real, and put on it.  The
    residual is |F(x)| over its largest magnitude at the probes; the error
    is the last Muller step.
    """
    if not (seeds := list(seeds)):
        return []
    h, r = max(1e-3, 10 * tol), 100 * tol
    xs = [[seed - h, seed + h, complex(seed)] for seed in seeds]
    fs = F(np.array(xs).ravel()).reshape(-1, 3).tolist()
    w = np.exp(2j * np.pi * np.arange(RING) / RING).tolist()
    near = [0, *(r * z for z in w), probe, -probe, 1j * probe]
    ring = [[z ** m for z in w] for m in (1, 2)]      # made once, not per seed
    step, roots = [0.0] * len(seeds), [None] * len(seeds)
    live = list(range(len(seeds)))
    for _ in range(MAX_ITER):
        moves = []      # (seed, next iterate); none at a degenerate point
        for i in live:
            (x2, x1, x0), (f2, f1, f0) = xs[i], fs[i]
            if x1 == x2 or x0 == x1:
                continue
            q = (x0 - x1) / (x1 - x2)
            a = q * f0 - q * (1 + q) * f1 + q * q * f2
            b = (2 * q + 1) * f0 - (1 + q) ** 2 * f1 + q * q * f2
            c = (1 + q) * f0
            disc = np.sqrt(complex(b * b - 4 * a * c))
            den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
            if den != 0:
                dx = -(x0 - x1) * 2 * c / den
                step[i] = abs(dx)
                moves.append((i, x0 + dx))
        if not moves:
            break
        pts = [[x + d for d in near] if step[i] < tol else [x]
               for i, x in moves]
        fx = iter(F(np.array(sum(pts, []))).tolist())
        live = []
        for (i, xn), p in zip(moves, pts):
            fn, *fr = [next(fx) for _ in p]
            if not fr:
                xs[i], fs[i] = xs[i][1:] + [xn], fs[i][1:] + [fn]
                live.append(i)
                continue
            mean = (fn + sum(fr[:RING])) / (RING + 1)
            c1, c2 = (sum(f / z for f, z in zip(fr, zm)) for zm in ring)
            dx = -mean * RING * r / c1 if abs(c2) < abs(c1) else 0
            s = canonicalize_s(xn + dx)
            kind = "complex-pair" if abs(s.imag) > max(r, 1e-9) else "real"
            s = s if kind == "complex-pair" else complex(s.real)
            roots[i] = Root(s, abs(fn) / (max(map(abs, fr[RING:])) or 1.0),
                            kind, error=step[i])
    return roots


def _extrapolate(samples, p):
    """The polynomial through the last three (or fewer) complex samples of
    a pair, at p: its predicted root, never extrapolated across the merge."""
    last = [(q, r.s) for q, r in samples if r.kind == "complex-pair"][-3:]
    return complex(sum(s * math.prod((p - u) / (q - u) for u, _ in last
                                     if u != q) for q, s in last))


def _match(members, found, p, dp, cfg):
    """Hand scanned real roots to real branches at p.

    Each member claims the scanned root nearest its predicted position (its
    last committed movement scaled to dp), within max(8 predicted movements,
    one scan step) of it, or at any distance before its first commit.  A
    claim no other member shares is committed.  Returns the other roots.
    """
    claims = {}
    for lb in members:
        pred = lb.s + (lb.ds * dp / lb.dp if lb.dp else 0.0)
        reach = max(8 * abs(pred - lb.s), cfg.step) if lb.dp else np.inf
        near = min(found, key=lambda r: abs(r.s.real - pred), default=None)
        if near is not None and abs(near.s.real - pred) <= reach:
            claims.setdefault(id(near), []).append(lb)
    for r in found:
        if len(claims.get(id(r), ())) == 1:
            claims[id(r)][0].commit(p, dp, r)
    return [r for r in found if len(claims.get(id(r), ())) != 1]


def _hand_out(members, roots, p, dp, cfg):
    """Hand roots to the members without a sample at p (unmatched), nearest
    first: a root goes to one within two scan steps plus four recent
    movements of it.  Returns the members still unmatched."""
    cand = sorted(((abs(r.s.real - lb.s), lb, r)
                   for lb in members for r in roots), key=lambda t: t[0])
    taken = set()
    for dist, lb, r in cand:
        if (lb.samples[-1][0] != p and id(r) not in taken
                and dist <= 2 * cfg.step + 4 * abs(lb.ds)):
            taken.add(id(r))
            lb.commit(p, dp, r)
    return [lb for lb in members if lb.samples[-1][0] != p]


def _merge(failed, new, held, p, cfg):
    """Merge the members failed (unmatched) at p: each complex root of new,
    (seed, root) from the window's count, not within 1e-6 of a root in held
    takes the two members nearest it, if both lie within two scan steps
    plus four recent movements of either of its Re s, and records their
    event with its seed.  Returns (members, root) of the new pairs, with no
    members for a root in the window that merges none."""
    pairs = []
    for seed, root in new:
        if (root.kind != "complex-pair"
                or any(abs(root.s - h.s) < 1e-6 for h in held)):
            continue
        held.append(root)
        near = sorted((lb for lb in failed if lb.status == "real"),
                      key=lambda lb: abs(lb.s - root.s.real))[:2]
        reach = 2 * cfg.step + 4 * sum(abs(lb.ds) for lb in near)
        if len(near) == 2 and abs(near[1].s - root.s.real) <= reach:
            near.sort(key=lambda lb: lb.s)
            event = CoalescenceEvent(p, tuple(lb.index for lb in near), seed)
            for lb in near:
                lb.status = "pair"
                lb.events.append(event)
            pairs.append((sorted(near, key=lambda lb: lb.index), root))
        elif cfg.s_min <= root.s.real <= cfg.s_max:
            pairs.append(([], root))
    return pairs


def _inside(cert, r):
    """Whether root r lies in the region of the count's certificate."""
    c, a, b = cert["region"]
    return abs((r.mu.real - c) / a + 1j * r.mu.imag / b) < 1


def _found(cert, roots):
    """Set the certificate's found, the zeros in its region among the
    distinct roots given (two per pair); CountError unless it is the
    count."""
    cert["found"] = sum(1 + (r.kind == "complex-pair")
                        for r in roots if _inside(cert, r))
    if cert["found"] != cert["count"]:
        raise CountError(f"the roots found are not the count: {cert}")


def count_window(F, cfg, reals, seeds=()):
    """Count the zeros in the region R of the scan window, the mu-ellipse
    over [mu(s_max), mu(s_min)] with b = 2a, less the real roots reals
    (contour.count_zeros); where a zero on R's end keeps the count from
    resolving, R stops short of the window's top two steps.  One
    refine_complex call polishes the seeds given and the count's.  Returns
    R's certificate, the given seeds' roots, and (seed, root) for the
    count's roots in R."""
    top = max(cfg.s_max - 2 * cfg.step, cfg.s_min + cfg.step)
    for hi in (cfg.s_max, top):
        mu = [-s * (s + 1) for s in (hi, cfg.s_min)]
        try:
            cert, new = contour.count_zeros(F, *mu,
                                            [r.mu.real for r in reals])
            break
        except CountError:
            if hi == top:
                raise
    roots = refine_complex(F, [*seeds, *new], cfg.tol, probe=cfg.step)
    new = [(z, r) for z, r in zip(new, roots[len(seeds):])
           if r is not None and _inside(cert, r)]
    return cert, roots[:len(seeds)], new


def certify(F, scan, reals):
    """The window's count (count_window) and the distinct roots in R that
    its seeds find, real or one per complex pair; CountError unless they
    and the scanned real roots reals make up the count."""
    cert, _, new = count_window(F, scan, reals)
    others = _dedupe([r for _, r in new], 1e-6)
    _found(cert, _dedupe([*reals, *others], 1e-6))
    return cert, others


def trace_parameter(family, values, cfg: ScanConfig, count=True) -> list:
    """Trace determinant roots along a parameter sweep.

    family(p) must return the vectorized determinant functional at p, and
    values is the strictly monotone sequence the samples lie on.  At each
    value one real scan is matched to the real branches (_match), and its
    unclaimed roots are handed to the unmatched ones (_hand_out).  A lone
    unmatched branch within two steps of the edge it moves toward has left
    the window.  If branches are still unmatched and count is true, the
    window is counted (count_window), its top end raised to the unmatched
    branches' reach (two steps plus four movements) where that passes
    s_max, in the value's one refine_complex call, which also takes each
    merged pair's predicted root (_extrapolate).  The count's real roots in
    the window are handed out, and its new pairs merge the unmatched
    branches or start pairs of their own (_merge).  Scanned roots and the
    count's real roots that no branch holds start new branches.  The
    branches unmatched at the count record its certificate and param in
    Branch.counts, found being the zeros in its region among the distinct
    roots the branches hold at the value (two per pair) and those the
    count finds past s_max; CountError unless it is the count.

    The count takes log F around an ellipse in mu = -s(s + 1), so F must be
    analytic in mu inside it, as the determinant functions are (a function
    of s(s + 1)); count is false for k = 0, whose zero at mu = 0 ends the
    region.

    A branch that ends says why in Branch.note: "left the scan window",
    "no convergence" (a real branch still unmatched), "complex
    continuation lost" (the lower-index member of a pair Muller lost; the
    other continues) or "complex pair returned to real axis".
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("parameter sweep needs at least two values")
    if not (all(np.diff(values) > 0) or all(np.diff(values) < 0)):
        raise ValueError("parameter sweep values must be strictly monotone")
    branches = [Branch(i, [(float(values[0]), r)], s=r.s.real)
                for i, r in enumerate(scan_real_roots(family(values[0]), cfg))]
    pairs = []      # the members of each merged pair, lower index first
    for p_prev, p in zip(values[:-1].tolist(), values[1:].tolist()):
        dp = p - p_prev
        F = family(p)
        found = scan_real_roots(F, cfg)
        reals = [lb for lb in branches if lb.status == "real"]
        failed = _hand_out(reals, _match(reals, found, p, dp, cfg), p, dp,
                           cfg)
        for lb in failed:
            edge = cfg.s_max - lb.s if lb.ds > 0 else lb.s - cfg.s_min
            reach = 2 * cfg.step + 4 * abs(lb.ds)
            if lb.ds and edge <= 2 * cfg.step and all(
                    abs(o.s - lb.s) >= reach + 4 * abs(o.ds)
                    for o in failed if o is not lb):
                lb.end("left the scan window")
        failed = [lb for lb in failed if lb.status == "real"]
        live = [m for pair in pairs
                if (m := [lb for lb in pair if lb.status == "pair"])]
        seeds = [_extrapolate(m[0].samples, p) for m in live]
        counted, new, more = failed if count else [], [], []
        if counted:     # R's top reaches past s_max to the unmatched's reach
            top = max([cfg.s_max] + [lb.s + 2 * cfg.step + 4 * abs(lb.ds)
                                     for lb in failed])
            cert, held, new = count_window(F, replace(cfg, s_max=top),
                                           found, seeds)
            more = [r for _, r in new
                    if r.kind == "real" and r.s.real <= cfg.s_max]
            failed = _hand_out(failed, more, p, dp, cfg)
        else:
            held = seeds and refine_complex(F, seeds, cfg.tol,
                                            probe=cfg.step)
        merged = _merge(failed, new, [r for r in held if r], p, cfg)
        pairs += [members for members, _ in merged if members]
        for members, root in [*zip(live, held), *merged]:
            if root is None or root.kind != "complex-pair":
                members[0].end("complex continuation lost" if root is None
                               else "complex pair returned to real axis")
                continue
            for lb in members:
                if cfg.s_min <= root.s.real <= cfg.s_max:
                    lb.s = root.s
                    lb.samples.append((p, root))
                else:
                    lb.end("left the scan window")
        for lb in failed:
            if lb.status == "real":
                lb.end("no convergence")
        # roots that no branch holds start new branches, a pair two
        at_p = {id(r): r for lb in branches
                for q, r in lb.samples[-1:] if q == p}
        for r in [*found, *more]:
            if id(r) not in at_p:
                at_p[id(r)] = r
                branches.append(Branch(len(branches), [(p, r)], s=r.s.real))
        for members, r in merged:
            if not members:
                at_p[id(r)] = r
                pairs.append([Branch(len(branches) + i, [(p, r)], s=r.s,
                                     status="pair") for i in (0, 1)])
                branches += pairs[-1]
        if counted:
            _found(cert, [*at_p.values(), *_dedupe(
                [r for _, r in new if r.s.real > cfg.s_max], 1e-6)])
            for lb in counted:
                lb.counts.append({"param": p} | cert)
    return branches
