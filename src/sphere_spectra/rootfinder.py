"""Root location for the determinant functions.

Real roots are found by grid scan plus guarded inverse interpolation on
the sign-change brackets, one F call per round for all of them (Brent
1973, ch. 4; see _refine_brackets), which closes each bracket below tol;
complex roots by Muller iteration (three-point quadratic interpolation,
derivative-free: the determinant is a black box and numerical derivatives
are noisy near coalescence), one batched loop whose seeds share each F
call and end with a Newton step averaged over a small circle.
Parameter continuation is one flat loop over the sweep values: it scans
each value once and matches the scanned roots to the branches by their
predicted positions; _rescan resolves a branch left unmatched by a fine
local rescan, and two nearby unmatched real branches merge into a pair.
Then _refine_pairs refines every merged pair at the value, new, parked or
already complex, in one Muller pass, a complex one from the root its path
predicts.  Samples lie only on the sweep values and inside the scan
window.  Scans call F on float arrays, Muller on complex.

A root's residual is the determinant magnitude at the root
(Muller: at its last iterate) scaled by its magnitude at the grid
neighbours (Muller: probe points), so it does not depend on the
determinant's overall size.  A root's error bounds its distance in s
from the true root: the closing bracket width, or the last Muller step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field

import numpy as np

from .core import GridTooCoarseWarning, Root, canonicalize_s

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
    double root, the step would be noise and the root stays at x.  The
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
            roots[i] = Root(s, abs(fn) / (max(map(abs, fr[RING:])) or 1.0),
                            kind, error=step[i])
    return roots


def _extrapolate(samples, p):
    """The polynomial through the last three (or fewer) complex samples of
    a pair, at p: its predicted root, never extrapolated across the merge."""
    last = [(q, r.s) for q, r in samples if r.kind == "complex-pair"][-3:]
    return complex(sum(s * math.prod((p - u) / (q - u) for u, _ in last
                                     if u != q) for q, s in last))


def _match(members, found, dp, cfg):
    """Hand scanned real roots to real branches.

    Each member claims the scanned root nearest its predicted position (its
    last committed movement scaled to dp), within max(8 predicted movements,
    one scan step) of it, or at any distance before its first commit.
    Returns the (member, root) claims that no other member shares: two
    members claiming one root is the signature of an imminent coalescence,
    resolved by the caller.
    """
    claims = {}
    for lb in members:
        pred = lb.s + (lb.ds * dp / lb.dp if lb.dp else 0.0)
        reach = max(8 * abs(pred - lb.s), cfg.step) if lb.dp else np.inf
        near = min(found, key=lambda r: abs(r.s.real - pred), default=None)
        if near is not None and abs(near.s.real - pred) <= reach:
            claims.setdefault(id(near), []).append((lb, near))
    return [c[0] for c in claims.values() if len(c) == 1]


def _rescan(failed, occupied, F, p, dp, cfg):
    """Resolve the branches failed (unmatched) at p, in clusters of mutually
    approachable members: adjacent ones belong together when their gap is
    under two scan steps plus a slope allowance of four recent movements
    each.  Re-scan each cluster's neighbourhood, clipped to the scan window,
    at a tenth of the grid step, hand surviving real roots more than a
    quarter step from every occupied position back to the nearest branches,
    and merge the leftover adjacent pairs.  A lone leftover has left the
    window if its re-scan was clipped at the edge it moved toward, else it
    did not converge.  Returns the new pairs: [lower-index member, other
    member, failed conversions]."""
    clusters = []
    for lb in sorted(failed, key=lambda lb: lb.s):
        radius = cfg.step + 4 * abs(lb.ds)
        if clusters and lb.s - (prev := clusters[-1][-1]).s < (
                radius + cfg.step + 4 * abs(prev.ds)):
            clusters[-1].append(lb)
        else:
            clusters.append([lb])
    pairs = []
    for cluster in clusters:
        lo = max(cfg.s_min, min(lb.s for lb in cluster) - 2 * cfg.step)
        hi = min(cfg.s_max, max(lb.s for lb in cluster) + 2 * cfg.step)
        fine = ScanConfig(lo, hi, cfg.step / 10, cfg.tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            found = scan_real_roots(F, fine)
        avail = [r for r in found
                 if all(abs(r.s.real - c) > cfg.step / 4 for c in occupied)]
        # nearest-first matching of surviving roots to branches
        cand = sorted(((abs(r.s.real - lb.s), lb, r)
                       for lb in cluster for r in avail), key=lambda t: t[0])
        taken = set()
        for dist, lb, r in cand:
            if (lb.samples[-1][0] != p and id(r) not in taken
                    and dist <= 2 * cfg.step + 4 * abs(lb.ds)):
                taken.add(id(r))
                lb.commit(p, dp, r)
        lbs = sorted((lb for lb in cluster if lb.samples[-1][0] != p),
                     key=lambda lb: lb.s)
        while len(lbs) >= 2:
            la, lc = sorted(lbs[:2], key=lambda lb: lb.index)
            del lbs[:2]
            la.status = lc.status = "pair"
            pairs.append([la, lc, 0])
        for lb in lbs:
            gone = (lb.ds > 0 and hi == cfg.s_max
                    or lb.ds < 0 and lo == cfg.s_min)
            lb.end("left the scan window" if gone else "no convergence")
    return pairs


def _refine_pairs(pairs, F, p, cfg):
    """Refine every merged pair at p in one refine_complex call.  A pair
    with its event continues from the root its complex samples predict
    (_extrapolate); a new or parked pair is converted from the midpoint
    of its members' last real roots, one scan step into the upper
    half-plane, and on success records the event on both members.  A
    failed conversion (no convergence, or the seed falls back onto the
    real axis just before the true merge parameter) parks the pair: it
    is retried once at each of the next three sweep values, then ends.
    A lost complex root ends the lower-index member; the other continues
    from the same root.  A complex root whose Re s is outside [s_min,
    s_max] ends both; otherwise the new root is appended to both."""
    work = [(m, pair) for pair in pairs
            if (m := [lb for lb in pair[:2] if lb.status == "pair"])]
    seeds = [_extrapolate(m[0].samples, p) if m[0].events
             else 0.5 * (m[0].s + m[1].s) + 1j * cfg.step for m, _ in work]
    roots = work and refine_complex(F, seeds, cfg.tol, probe=cfg.step)
    for (members, pair), seed, root in zip(work, seeds, roots):
        merging = not members[0].events
        if root is None or root.kind != "complex-pair":
            if not merging:
                members[0].end("complex continuation lost" if root is None
                               else "complex pair returned to real axis")
            else:
                pair[2] += 1
                if pair[2] > 3:
                    for lb in members:
                        lb.end("coalescence seed rejected")
            continue
        if merging:
            ids = tuple(m.index for m in sorted(members, key=lambda m: m.s))
            event = CoalescenceEvent(p, ids, seed)
            for lb in members:
                lb.events.append(event)
        for lb in members:
            if cfg.s_min <= root.s.real <= cfg.s_max:
                lb.s = root.s
                lb.samples.append((p, root))
            else:
                lb.end("left the scan window")


def trace_parameter(family, values, cfg: ScanConfig) -> list:
    """Trace determinant roots along a parameter sweep.

    family(p) must return the vectorized determinant functional at
    parameter value p; values is the strictly monotone sample sequence,
    and every sample lies on one of its values.  The loop takes one value
    per pass.  One real scan of [s_min, s_max] is matched to the live real
    branches (see _match).  A real branch whose last sample is not at the
    value is unmatched, and _rescan resolves it.  Then one refine_complex
    call refines every merged pair at the value (see _refine_pairs).
    Scanned roots that no real branch holds start new branches.

    A branch that ends carries its reason in Branch.note: "left the scan
    window" (see _rescan; a complex pair's Re s outside [s_min, s_max]),
    "no convergence", "coalescence seed rejected", "complex continuation
    lost" or "complex pair returned to real axis".
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("parameter sweep needs at least two values")
    if not (all(np.diff(values) > 0) or all(np.diff(values) < 0)):
        raise ValueError("parameter sweep values must be strictly monotone")
    branches = [Branch(i, [(float(values[0]), r)], s=r.s.real)
                for i, r in enumerate(scan_real_roots(family(values[0]), cfg))]
    pairs = []
    for p_prev, p in zip(values[:-1].tolist(), values[1:].tolist()):
        dp = p - p_prev
        F = family(p)
        found = scan_real_roots(F, cfg)
        reals = [lb for lb in branches if lb.status == "real"]
        for lb, r in _match(reals, found, dp, cfg):
            lb.commit(p, dp, r)
        failed = [lb for lb in reals if lb.samples[-1][0] != p]
        occupied = [lb.s for lb in reals if lb.samples[-1][0] == p]
        pairs += _rescan(failed, occupied, F, p, dp, cfg)
        _refine_pairs(pairs, F, p, cfg)
        # scanned roots that no live real branch holds start new branches
        known = [lb.s for lb in branches if lb.status == "real"]
        for r in found:
            if not any(abs(r.s.real - s) < 2 * cfg.step for s in known):
                branches.append(Branch(len(branches), [(p, r)], s=r.s.real))
                known.append(r.s.real)
    return branches
