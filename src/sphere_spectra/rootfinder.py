"""Root location for the determinant functions.

Real roots are found by grid scan plus guarded inverse interpolation on
the sign-change brackets, one F call per round for all of them (Brent
1973, ch. 4; see _refine_brackets), which closes each bracket below tol;
complex roots by Muller iteration (three-point quadratic interpolation,
derivative-free: the determinant is a black box and numerical derivatives
are noisy near coalescence), one batched loop whose seeds share each F
call and end with a Newton step averaged over a small circle.
Parameter continuation scans every sweep value once and matches the
scanned roots to the branches by their predicted positions; a branch left
unmatched is resolved by a fine local rescan, and two nearby unmatched real
branches merge into a pair.  Then every merged pair at the value, new,
parked or already complex, is refined in one Muller pass, a complex one
from the root its path predicts.  Samples lie only on the sweep values and
inside the scan window.  Scans call F on float arrays, Muller on complex.

A root's residual is the normalized determinant magnitude at the root
(Muller: at its last iterate) scaled by its magnitude at the grid
neighbours (Muller: probe points), so it does not depend on the
determinant's overall size.  A root's error bounds its distance in s
from the true root: the closing bracket width, or the last Muller step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
        if not all(map(math.isfinite, (self.s_min, self.s_max, self.step,
                                       self.tol))):
            raise ValueError("s_min, s_max, step and tol must be finite")
        if self.s_min < -0.5:
            raise ValueError("s_min must be >= -0.5 (canonical half-plane)")
        if self.step <= 0 or self.tol <= 0:
            raise ValueError("step and tol must be positive")
        if self.step > self.s_max - self.s_min:
            raise ValueError("the scan window [s_min, s_max] must be at "
                             "least one step wide")


@dataclass
class CoalescenceEvent:
    """Two real branches merged at param and continued as a complex pair."""

    param: float
    s_merged: float
    branch_ids: tuple
    seed: complex


@dataclass
class Branch:
    """A root traced along a parameter sweep."""

    parameter: str
    index: int
    samples: list = field(default_factory=list)   # (param value, Root)
    events: list = field(default_factory=list)
    note: str = ""


def _as_batch(F):
    def call(s):
        return np.asarray(F(np.atleast_1d(np.asarray(s))))
    return call


def _refine_brackets(F, s, f, tol):
    """Guarded inverse interpolation on sign-change brackets, one per row of
    s, f: its ends, their grid neighbours (nan if none), then four nan pool
    columns.  Each round's F call takes, per open bracket, the inverse-cubic
    estimate x through its four points of nonzero F nearest zero, guards at
    x -+ d (d its change from the quadratic through the nearest three,
    >= tol / 4) and the midpoint if its last round did not halve it; if x is
    not inside, the midpoint and quarter points.  Returns per bracket the end
    with the smaller |F|, that |F| and the final width (the error bound)."""
    s, f = s.copy(), f.copy()      # the pool: four nearest, then the new
    ends, fends = s[:, :2].copy(), f[:, :2].copy()
    halved = np.ones(len(s), dtype=bool)
    for _ in range(MAX_ITER):
        a, b = ends.T
        i = np.nonzero((b - a > tol) & (np.nextafter(a, b) < b))[0]
        if not i.size:
            break
        (a, b), rows, w = ends[i].T, np.arange(i.size)[:, None], b[i] - a[i]
        near = np.argsort(np.where(f[i] == 0, np.inf, abs(f[i])), 1)[:, :4]
        p, fp = s[i][rows, near], f[i][rows, near]
        # s(F) at F = 0 in Lagrange form, as a correction to the nearest point
        with np.errstate(divide="ignore", invalid="ignore"):
            lw = fp[:, None, :] / (fp[:, None, :] - fp[:, :, None])
            lw[:, range(4), range(4)] = 1.0
            ds, mid = p - p[:, :1], a + w / 2
            x = p[:, 0] + (ds * lw.prod(2)).sum(1)
            d = abs(x - p[:, 0] - (ds[:, :3] * lw[:, :3, :3].prod(2)).sum(1))
        inside = (a < x) & (x < b)
        x, d = np.where(inside, (x, np.maximum(d, tol / 4)), (mid, w / 4))
        new = np.clip(np.stack([x, x - d, x + d, np.where(
            halved[i] | ~inside, np.nan, mid)], axis=1),
            np.nextafter(a, b)[:, None], np.nextafter(b, a)[:, None])
        fn = np.full(new.shape, np.nan)
        fn[~np.isnan(new)] = np.real(F(new[~np.isnan(new)]))
        s[i], f[i] = np.column_stack([p, new]), np.column_stack([fp, fn])
        cs, cf = (np.column_stack(v) for v in ((ends[i], new), (fends[i], fn)))
        cs, cf = cs[rows, (o := np.argsort(cs, axis=1))], cf[rows, o]
        # shortest sign change or zero; the last point (b or nan) is no zero
        zero, sg = cf[:, :-1] == 0, np.sign(cf)     # no inf * 0: see scan
        k = np.where(zero, 0, np.where(sg[:, :-1] * sg[:, 1:] < 0, np.diff(
            cs, axis=1), np.inf)).argmin(axis=1)[:, None]
        j = np.column_stack([k, k + ~zero[rows, k]])
        ends[i], fends[i] = cs[rows, j], cf[rows, j]
        halved[i] = ends[i, 1] - ends[i, 0] <= w / 2
    low = np.abs(fends[:, 0]) <= np.abs(fends[:, 1])
    return np.where(low, *ends.T), np.abs(fends).min(1), np.diff(ends)[:, 0]


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
    F = _as_batch(F)
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
    F, h, r = _as_batch(F), max(1e-3, 10 * tol), 100 * tol
    xs = [[seed - h, seed + h, complex(seed)] for seed in seeds]
    fs = F(np.array(xs).ravel()).reshape(-1, 3).tolist()
    w = np.exp(2j * np.pi * np.arange(RING) / RING).tolist()
    near = [0, *(r * z for z in w), probe, -probe, 1j * probe]
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
            c1, c2 = (sum(f / z ** m for f, z in zip(fr, w)) for m in (1, 2))
            dx = -mean * RING * r / c1 if abs(c2) < abs(c1) else 0
            s = canonicalize_s(xn + dx)
            kind = "complex-pair" if abs(s.imag) > max(r, 1e-9) else "real"
            roots[i] = Root(s, abs(fn) / (max(map(abs, fr[RING:])) or 1.0),
                            kind, error=step[i])
    return roots


class _LiveBranch:
    __slots__ = ("branch", "status", "s", "ds", "dp")

    def __init__(self, branch, s):
        self.branch = branch
        self.status = "real"          # real | pair | dead
        self.s = s
        self.ds = 0.0                 # movement of the last committed step
        self.dp = 0.0                 # parameter delta of that step

    def predicted(self, dp):
        """Position after a parameter step dp: the last committed movement
        scaled to dp, or no movement before the first commit."""
        return self.s + (self.ds * dp / self.dp if self.dp else 0.0)

    def commit(self, p, dp, root):
        self.ds = root.s.real - self.s
        self.dp = dp
        self.s = root.s.real
        self.branch.samples.append((p, root))

    def end(self, note):
        self.status = "dead"
        self.branch.note = note


def _extrapolate(samples, p):
    """The polynomial through the last three (or fewer) complex samples of
    a pair, at p: its predicted root, never extrapolated across the merge."""
    last = [(q, r.s) for q, r in samples if r.kind == "complex-pair"][-3:]
    return complex(sum(s * math.prod((p - u) / (q - u) for u, _ in last
                                     if u != q) for q, s in last))


def _match(members, found, dp, cfg):
    """Hand scanned real roots to real branches.

    Each member claims the scanned root nearest its predicted position,
    within max(8 predicted movements, one scan step) of it, or at any
    distance before its first committed step.  Returns the (member, root)
    claims that no other member shares: two members claiming one root is
    the signature of an imminent coalescence, resolved by the caller.
    """
    claims = {}
    for lb in members:
        pred = lb.predicted(dp)
        reach = max(8 * abs(pred - lb.s), cfg.step) if lb.dp else np.inf
        near = min(found, key=lambda r: abs(r.s.real - pred), default=None)
        if near is not None and abs(near.s.real - pred) <= reach:
            claims.setdefault(id(near), []).append((lb, near))
    return [c[0] for c in claims.values() if len(c) == 1]


def _failure_clusters(failed, cfg):
    """Group failing branches into clusters of mutually approachable
    members; adjacent members belong together when their gap is under two
    scan steps plus a slope allowance of four recent movements each."""
    members = sorted(failed, key=lambda lb: lb.s)
    clusters = []
    for lb in members:
        radius = cfg.step + 4 * abs(lb.ds)
        if clusters:
            prev = clusters[-1][-1]
            if lb.s - prev.s < radius + cfg.step + 4 * abs(prev.ds):
                clusters[-1].append(lb)
                continue
        clusters.append([lb])
    return clusters


def trace_parameter(family, parameter: str, values, cfg: ScanConfig) -> list:
    """Trace determinant roots along a parameter sweep.

    family(p) must return the vectorized determinant functional at
    parameter value p; values is the monotone sample sequence, and every
    sample lies on one of its values.  At each value one real scan of
    [s_min, s_max] is matched to the live real branches (see _match).
    Branches left unmatched are resolved by a fine rescan of their
    neighbourhood: surviving roots go back to the nearest branches,
    adjacent leftover pairs merge, and a lone leftover ends its branch.
    Then one refine_complex call refines every merged pair at the value:
    a pair formed there or parked by a failed conversion is seeded from
    its members' midpoint, and a converted one (its coalescence event
    recorded on both branches) from the quadratic through its last three
    complex roots; the new root is appended to both.  Scanned roots that
    no real branch holds start new branches.

    A branch that ends carries its reason in Branch.note: "left the scan
    window" (its predicted position, or its complex pair's Re s, is outside
    [s_min, s_max]), "no convergence", "coalescence seed rejected",
    "complex continuation lost" or "complex pair returned to real axis".
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("parameter sweep needs at least two values")
    branches, live = [], []
    for r in scan_real_roots(family(values[0]), cfg):
        br = Branch(parameter, len(branches), [(float(values[0]), r)])
        branches.append(br)
        live.append(_LiveBranch(br, r.s.real))

    pairs = []      # (lower-index member, other member, failure params)

    def handle_failures(failed, F, p, dp):
        """Resolve unmatched real branches: re-scan their neighbourhood,
        clipped to the scan window, at a tenth of the grid step, hand
        surviving real roots back to the nearest branches, and merge the
        leftover adjacent pairs (refined by refine_pairs).  A leftover
        without a partner ends its branch."""
        occupied = [lb.s for lb in live
                    if lb.status == "real" and lb not in failed]
        for cluster in _failure_clusters(failed, cfg):
            lo = max(cfg.s_min, min(lb.s for lb in cluster) - 2 * cfg.step)
            hi = min(cfg.s_max, max(lb.s for lb in cluster) + 2 * cfg.step)
            fine = ScanConfig(lo, hi, cfg.step / 10, cfg.tol)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GridTooCoarseWarning)
                found = scan_real_roots(F, fine)
            avail = [r for r in found
                     if all(abs(r.s.real - c) > cfg.step / 4
                            for c in occupied)]
            # nearest-first matching of surviving roots to branches
            lbs = list(cluster)
            cand = sorted(((abs(r.s.real - lb.s), lb, r)
                           for lb in lbs for r in avail),
                          key=lambda t: t[0])
            taken = set()
            for dist, lb, r in cand:
                if lb not in lbs or id(r) in taken:
                    continue
                if dist > 2 * cfg.step + 4 * abs(lb.ds):
                    continue
                lbs.remove(lb)
                taken.add(id(r))
                lb.commit(p, dp, r)
            lbs.sort(key=lambda lb: lb.s)
            while len(lbs) >= 2:
                la, lc = sorted(lbs[:2], key=lambda lb: lb.branch.index)
                del lbs[:2]
                la.status = lc.status = "pair"
                pairs.append((la, lc, []))
            for lb in lbs:
                inside = cfg.s_min <= lb.predicted(dp) <= cfg.s_max
                lb.end("no convergence" if inside else "left the scan window")

    def refine_pairs(F, p):
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
        s_max] ends both."""
        work = [(m, failures) for la, lc, failures in pairs
                if (m := [lb for lb in (la, lc) if lb.status == "pair"])]
        seeds = [_extrapolate(m[0].branch.samples, p) if m[0].branch.events
                 else 0.5 * (m[0].s + m[1].s) + 1j * cfg.step
                 for m, _ in work]
        roots = work and refine_complex(F, seeds, cfg.tol, probe=cfg.step)
        for (members, failures), seed, root in zip(work, seeds, roots):
            merging = not members[0].branch.events
            if root is None or root.kind != "complex-pair":
                if not merging:
                    members[0].end("complex continuation lost" if root is None
                                   else "complex pair returned to real axis")
                else:
                    failures.append(p)
                    if len(failures) > 3:
                        for lb in members:
                            lb.end("coalescence seed rejected")
                continue
            if merging:
                ids = tuple(lb.branch.index
                            for lb in sorted(members, key=lambda lb: lb.s))
                event = CoalescenceEvent(p, seed.real, ids, seed)
                for lb in members:
                    lb.branch.events.append(event)
            for lb in members:
                if cfg.s_min <= root.s.real <= cfg.s_max:
                    lb.s = root.s
                    lb.branch.samples.append((p, root))
                else:
                    lb.end("left the scan window")

    for p_prev, p in zip(values[:-1].tolist(), values[1:].tolist()):
        dp = p - p_prev
        F = family(p)
        found = scan_real_roots(F, cfg)
        reals = [lb for lb in live if lb.status == "real"]
        matched = _match(reals, found, dp, cfg)
        for lb, r in matched:
            lb.commit(p, dp, r)
        held = {id(lb) for lb, _ in matched}
        handle_failures([lb for lb in reals if id(lb) not in held], F, p, dp)
        refine_pairs(F, p)
        # scanned roots that no live real branch holds start new branches
        known = [lb.s for lb in live if lb.status == "real"]
        for r in found:
            if any(abs(r.s.real - s) < 2 * cfg.step for s in known):
                continue
            br = Branch(parameter, len(branches), [(p, r)])
            branches.append(br)
            live.append(_LiveBranch(br, r.s.real))
            known.append(r.s.real)
    return branches
