"""Trajectory engine: polyline braids in the plane, event extraction, and
word realization.

This module is the independent cross-check for the algebraic pipelines: a
braid is a family of piecewise-linear disjoint paths, and words are read off
from geometric events.

Two extraction pipelines are provided.

Cylinder reading (cylinder_reading / power_map_extract): fix a
strand k; watch the remaining strands through the angular coordinate around
strand k, cut along the ray from strand k pointing away from the centroid,
or along a fixed direction cut_angle. Alignment of two strands with each
other (as seen from k) is a crossing event, the farther strand over; a
strand sweeping through the cut is a rotation event, a z. The d-th power
reading is homs.f_d of that word, each z the rotation-virtual block
z (Dv z)^(d-1).

Plane-pair reading (q_kl / psi_events / psi_d_events / realize_flat_virtual):
q_kl views the braid with strands k and l as the punctures 0 and 1, after an
exact check that no other strand comes near them, and builds the view's
model once: its frame's segments and one angle range per watched strand,
which every reading of the view reads. A plain braid is read as the view of
two strands standing at 0 and 1, its model built per reading. Each other
pair is watched through the four-point cross ratio on the braid's own
segments; its real crossings are events, classified as over, under or flat
by where on the real line they happen, and realized as a flat-virtual word.
The d-th power reading watches the rays at angles 2 pi p / d; the plain
reading is d=2.

All event detection happens on the polyline model itself, one grid per
braid, the breakpoint times of all its strands and every strand's point at
each: between two of them every strand is linear in t, and every event is
a ratio N/D on a ray. The cylinder's ratios,
(z_i - z_k)/(z_j - z_k) and (z_l - z_k)/v for the cut direction v, have
linear N and D and watch ray 0 alone (d=1); a cross ratio has quadratic N
and D. N/D lies on the line through 0 in direction conj(w) where the real
polynomial Im(w N conj(D)) vanishes, on the ray p or p + d/2 by the sign of
Re(w N conj(D)). Before that polynomial is built, one angle bound skips the
segments it proves event-free: arg(N/D) is a signed sum of the angles of the
vectors N and D are made of, each monotone on a segment between its unwound
breakpoint values; a pair bounds it per watched strand, and solves it only
on the lines of the rays that bound reaches. One routine isolates
every root: Descartes' rule of signs in the Bernstein basis with halving,
then Illinois steps on each isolating bracket; roots too close to separate
raise NonGenericInput, unless they lie where no ray is. It decides each
root's tangency and sense from the slope of the polynomial it solved; one
margin, GENERICITY_TOL, holds every genericity test. Readings return Events.

Every reading works in the frame of one strand (_frame), scaled by a power
of two, which is exact: a reading is the same at every scale, and with the
coordinate bound of GeomBraid nothing overflows. Each frame gives its
readings one segment shape, and the angle bounds are built from the
frame's own breakpoint values. GENERICITY_TOL, the moving cut's floor n
GENERICITY_TOL included, is taken in the frame's units; SEPARATION_TOL
alone is absolute, as a margin relative to the braid's diameter would
refuse a braid with one far excursion.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, compress
from operator import add, itemgetter, lt, ne, sub, truediv
from typing import Iterable, Sequence

from .braidword import (MAX_LETTERS, GroupId, Letter, Word,
                        free_reduce_letters, sigma, tau, pi, zeta)
from .errors import (NonGenericInput, NonIntegerWinding, NonZeroLinking,
                     PunctureCollision, SeparationViolated)
from .homs import f_d
from .laurent import integer

TWO_PI = 2.0 * math.pi

SEPARATION_TOL = 4e-6        # minimum distance between strands
GENERICITY_TOL = 1e-9        # every genericity margin, in its own test's unit
BISECTION_TOL = 1e-12        # root refinement width in t
_DEDUPE_GAP = 1e-11          # one root at a segment end read from both sides
_ARG_ROUNDING = 1e-12        # angle filter's rounding allowance, per kappa^4

# deterministic base-point profile; small irrational-frequency jitter keeps
# regular-polygon degeneracies away without disturbing the slot order
_ANG_AMP, _ANG_FREQ, _ANG_PHASE = 0.031, 2.39996, 0.7
_RAD_AMP, _RAD_FREQ, _RAD_PHASE = 0.043, 1.61803, 1.1
_SPREAD_FREQ, _SPREAD_PHASE = 2.71828, 0.5


@dataclass(frozen=True)
class Event:
    """One generic event. The pair readings give events of strands i < j
    with cls one of 'classical_over' (j passes over i), 'classical_under'
    or 'flat', and ne the strand whose tangent heads to the negative
    end. The cylinder reading gives 'crossing' events, two strands i < j
    aligned as seen from the watched strand, at slot with crossing sign
    sign, and 'cut' events, strand i passing the cut of the watched strand
    j, with sign the power of the passage."""

    time: float
    i: int
    j: int
    cls: str
    ne: int | None = None
    slot: int | None = None
    sign: int | None = None

    def to_json(self) -> dict:
        if self.cls == "crossing":
            return {"t": self.time, "kind": "crossing", "pair": [self.i, self.j],
                    "slot": self.slot, "sign": self.sign}
        if self.cls == "cut":
            return {"t": self.time, "kind": "cut", "strand": self.i,
                    "power": self.sign}
        out = {"t": self.time, "pair": [self.i, self.j], "class": self.cls}
        if self.ne is not None:
            out["ne"] = self.ne
        return out


@dataclass(frozen=True)
class GeomBraid:
    """Polyline braid: per strand, breakpoints (time, point) with times
    strictly increasing from 0 to 1, every coordinate finite and below
    sys.float_info.max / 4 (just under 2^1022) in magnitude, so that every
    difference of two points, and its length, is a finite float. Strands
    stay SEPARATION_TOL apart at all times, in absolute units, as
    _approach checks on every pair; the earliest approach is refused.

    One grid is built once, with the braid: times, the breakpoint times of
    all strands, sorted, and _paths, every strand's at() at each, exactly
    its own points at its own breakpoints. Between two grid times every
    strand is linear: the grid is the braid's own piecewise-linear model,
    which the checks, the windings and every reading (_frame) work on.
    With it come _sums, per strand the running sum of its moves over the
    grid intervals, which let _approach skip runs of clear intervals at
    once, and two caches each filled once per fact asked: _windings, the
    winding of each ordered pair (linking_number), and _cylinder, the
    events of each (k, cut) (cylinder_events)."""

    n: int
    strands: tuple[tuple[tuple[float, complex], ...], ...]

    def __post_init__(self):
        if self.n != len(self.strands) or self.n < 2:
            raise ValueError("strand count mismatch")
        bound = sys.float_info.max / 4
        for bps in self.strands:
            if len(bps) < 2 or bps[0][0] != 0.0 or bps[-1][0] != 1.0:
                raise ValueError("each strand needs breakpoints from t=0 to t=1")
            ts, zs = zip(*bps)
            if not all(map(lt, ts, ts[1:])):
                raise ValueError("breakpoint times must strictly increase")
            if not all(map(cmath.isfinite, zs)):
                raise ValueError("breakpoint points must be finite")
            if any(abs(z.real) >= bound or abs(z.imag) >= bound for z in zs):
                raise ValueError("breakpoint points too large for float "
                                 "arithmetic")
        times = sorted({t for bps in self.strands for t, _ in bps})
        paths = tuple(_walk(bps, times) for bps in self.strands)
        object.__setattr__(self, "times", tuple(times))
        object.__setattr__(self, "_paths", paths)
        object.__setattr__(self, "_sums", tuple(
            list(accumulate(map(abs, map(sub, path[1:], path)), initial=0.0))
            for path in paths))
        object.__setattr__(self, "_windings", {})
        object.__setattr__(self, "_cylinder", {})
        self._check_separation()

    @property
    def pure(self) -> bool:
        """Every strand ends where it started."""
        return self.start_config() == self.end_config()

    def at(self, strand: int, t: float) -> complex:
        """Position of 1-based strand at time t in [0, 1]."""
        _check_strand(self, strand)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time {t} outside [0, 1]")
        bps = self.strands[strand - 1]
        lo = bisect_right(bps, t, 1, len(bps) - 1, key=itemgetter(0)) - 1
        (t0, z0), (t1, z1) = bps[lo], bps[lo + 1]
        if t <= t0:
            return z0
        if t >= t1:
            return z1
        u = (t - t0) / (t1 - t0)
        return z0 + (z1 - z0) * u

    def start_config(self) -> tuple[complex, ...]:
        return tuple(bps[0][1] for bps in self.strands)

    def end_config(self) -> tuple[complex, ...]:
        return tuple(bps[-1][1] for bps in self.strands)

    def _check_separation(self) -> None:
        hit = _approach(self, list(combinations(range(self.n), 2)), None,
                        SEPARATION_TOL)
        if hit is not None:
            (i, j), t = hit
            raise SeparationViolated(f"strands {i + 1} and {j + 1} within "
                                     f"tolerance near t={t:.6f}")


def _check_strand(braid: GeomBraid, strand: int) -> None:
    if not 1 <= integer(strand, "strand") <= braid.n:
        raise ValueError(f"strand {strand} outside 1..{braid.n}")


def _walk(bps, times) -> list[complex]:
    """A strand's position at each of the increasing times, by one forward
    walk over its breakpoints: the segment and the formula of at()."""
    out, lo, last = [], 0, len(bps) - 2
    (t0, z0), (t1, z1) = bps[0], bps[1]
    for t in times:
        while lo < last and t1 <= t:
            lo += 1
            (t0, z0), (t1, z1) = bps[lo], bps[lo + 1]
        out.append(z0 if t <= t0 else z1 if t >= t1
                   else z0 + (z1 - z0) * ((t - t0) / (t1 - t0)))
    return out


def _approach(braid: GeomBraid, pairs, far, tol: float):
    """The first (pair, time) at which a pair (s, x) of 0-based strands comes
    within tol |c| of each other, c = z_l - z_k for far = (k, l) and 1 for
    far None, the grid intervals in time order and the pairs in order in
    each; or None. The exact quadratic (_comes_within) decides an interval
    unless |d0| > 2 (q_s + q_x) + reach_g, reach_g = 2 tol (|c0| + q_k +
    q_l), q a strand's move over it (q_k = q_l = 0 for far None): the
    moves bound |d1 - d0| and |c1 - c0| and, unlike those lengths, are
    finite floats under the coordinate bound. There |d(u)| >= |d0| - |d1 -
    d0| > |d0|/2 + tol |c(u)| on [0, 1], a margin the few ulps
    _comes_within loses on these same floats cannot close, so the skip
    needs no rounding allowance. A nan is never skipped.

    Each pair skips runs of such intervals at once. At interval g, with
    gap = |d0| - reach, reach the largest reach_g, bisection on each of the
    pair's strands' running sums of moves (GeomBraid._sums) finds the last
    grid index r up to which its moves from g stay below gap/4 less err, a
    bound on the sums' rounding: (len + 4) eps times the last sum covers
    both sums' accumulated rounding, their terms' and the bisection
    limit's. On an interval of g..r-1 the two strands have moved less than
    gap/2 in all, so |d(u)| > |d0| - gap/2 = |d0|/2 + reach/2 >= |d0|/2 +
    tol |c(u)|, the same margin; and with m the strands' moves from g to
    its start, 2 (q_s + q_x) + reach_g < gap - 2 m + reach <= |d0| - m,
    at most its own |d0|, so it would pass the test above too. Refusals
    and messages are therefore those of the exhaustive check, every
    interval through _comes_within. A sum overflowed to inf makes err inf
    and that strand's runs empty, and an infinite reach makes every run
    empty; a nan limit, inf - inf, stops the bisection at its start, so a
    nan is never cleared either. An empty run leaves interval g to the
    test above. Once a pair is refused at interval g, later pairs scan
    only the intervals before g, so the earliest (interval, pair) is the
    one reported."""
    z, times, sums = braid._paths, braid.times, braid._sums
    eps = sys.float_info.epsilon
    err = [(len(p) + 4) * eps * p[-1] for p in sums]
    stop = len(times) - 1
    if far is None:
        c = [1] * len(times)
        reaches = [2.0 * tol] * stop
    else:
        k, l = far
        c = list(map(sub, z[l], z[k]))
        reaches = [2.0 * tol * (abs(c0) + abs(l1 - l0) + abs(k1 - k0))
                   for c0, l0, l1, k0, k1 in zip(c, z[l], z[l][1:], z[k],
                                                 z[k][1:])]
    reach = max(reaches)
    hit = None
    for s, x in pairs:
        zs, zx, ps, px, es, ex = z[s], z[x], sums[s], sums[x], err[s], err[x]
        g = 0
        while g < stop:
            d0 = zs[g] - zx[g]
            quarter = (abs(d0) - reach) / 4
            r = bisect_left(ps, ps[g] + (quarter - es), g + 1, stop + 1)
            r = bisect_left(px, px[g] + (quarter - ex), g + 1, r) - 1
            if r > g:
                g = r
                continue
            if not abs(d0) > 2.0 * (abs(zs[g + 1] - zs[g])
                                    + abs(zx[g + 1] - zx[g])) + reaches[g]:
                u = _comes_within(d0, zs[g + 1] - zx[g + 1], c[g], c[g + 1],
                                  tol)
                if u is not None:
                    hit = (s, x), times[g] + (times[g + 1] - times[g]) * u
                    stop = g
                    break
            g += 1
    return hit


def _comes_within(d0, d1, c0, c1, tol: float) -> float | None:
    """A u in [0, 1] at which |d(u)| < tol |c(u)|, or None, for d and c
    linear on a grid interval from d0 to d1 and c0 to c1, the differences
    of the braid's grid points at its ends: the real quadratic |d|^2 -
    tol^2 |c|^2 is checked at both ends and at its vertex if inside,
    comparing the two lengths there directly.
    The inputs are first scaled by the power of two that brings their
    largest coordinate into [1/2, 1), exact, so nothing squared overflows;
    the vertex is reached from its nearer end, so a long segment's rounding
    loses no end. _approach, its one caller, skips the intervals its
    clearance test proves clear."""
    f = math.ldexp(1.0, -math.frexp(max(map(abs, (
        d0.real, d0.imag, d1.real, d1.imag, c0.real, c0.imag, c1.real,
        c1.imag))))[1])
    d0, d1, c0, c1 = d0 * f, d1 * f, c0 * f, c1 * f
    dd, dc = d1 - d0, c1 - c0
    a = abs(dd) ** 2 - tol * tol * abs(dc) ** 2
    b = (d0 * dd.conjugate()).real - tol * tol * (c0 * dc.conjugate()).real
    points = [(0.0, d0, c0), (1.0, d1, c1)]
    if a > 0.0 and 0.0 < -b < a:
        u = -b / a
        points.append((u, d0 + dd * u, c0 + dc * u) if u <= 0.5 else
                      (u, d1 - dd * (1.0 - u), c1 - dc * (1.0 - u)))
    for u, d, c in points:
        if abs(d) < tol * abs(c):
            return u
    return None


# -- synthesis ------------------------------------------------------------------


def base_points(n: int, radial_spread: float = 0.0) -> list[complex]:
    pts = []
    for j in range(1, n + 1):
        ang = TWO_PI * (j - 1) / n + _ANG_AMP * math.sin(_ANG_FREQ * j + _ANG_PHASE)
        rad = 1.0 + _RAD_AMP * math.cos(_RAD_FREQ * j + _RAD_PHASE)
        rad += radial_spread * math.cos(_SPREAD_FREQ * j + _SPREAD_PHASE)
        pts.append(rad * cmath.exp(1j * ang))
    return pts


def artin_dynamics(word: Word, *, segments_per_crossing: int = 16,
                   radial_spread: float = 0.0) -> GeomBraid:
    """Synthesize trajectories realizing a braid word: each crossing is a
    half-turn of the two affected strands about their midpoint,
    counter-clockwise for a positive letter, one uniform time slice per
    unit-power letter. A word whose letters times segments_per_crossing
    pass braidword.MAX_LETTERS is refused before any point is written."""
    if word.group.family != "B":
        raise ValueError("trajectory synthesis expects a braid word (family B)")
    if integer(segments_per_crossing, "segments per crossing") < 1:
        raise ValueError("segments per crossing must be at least 1")
    if sum(abs(l.power) for l in word.letters) * segments_per_crossing \
            > MAX_LETTERS:
        raise ValueError(f"synthesis would write more than {MAX_LETTERS} "
                         f"segments")
    n = word.group.strands
    pts = base_points(n, radial_spread)
    letters = list(word.expanded())
    tracks: list[list[tuple[float, complex]]] = [[(0.0, z)] for z in pts]
    occupant = list(range(n))        # occupant[position] = strand index (0-based)
    current = list(pts)              # current[strand]
    total = len(letters)
    seg = segments_per_crossing
    for step_idx, letter in enumerate(letters):
        t0 = step_idx / total
        t1 = (step_idx + 1) / total
        a_pos = letter.index - 1
        b_pos = letter.index
        sa, sb = occupant[a_pos], occupant[b_pos]
        za, zb = current[sa], current[sb]
        mid = (za + zb) / 2
        rel = za - mid
        direction = 1.0 if letter.power > 0 else -1.0
        for s in range(1, seg + 1):
            t = t0 + (t1 - t0) * s / seg
            if s == seg:
                pa, pb = zb, za
            else:
                rot = rel * cmath.exp(1j * direction * math.pi * s / seg)
                pa, pb = mid + rot, mid - rot
            tracks[sa].append((t, pa))
            tracks[sb].append((t, pb))
        current[sa], current[sb] = zb, za
        occupant[a_pos], occupant[b_pos] = sb, sa
    for track in tracks:
        if track[-1][0] != 1.0:
            track.append((1.0, track[-1][1]))
    return GeomBraid(n, tuple(tuple(tr) for tr in tracks))


def perturb(braid: GeomBraid, seed: int, magnitude: float) -> GeomBraid:
    """Jitter interior breakpoints; endpoints stay fixed. The magnitude must
    be non-negative and stay below half the separation tolerance."""
    if not magnitude >= 0.0:
        raise ValueError(f"perturbation {magnitude} must be non-negative")
    if magnitude > SEPARATION_TOL / 2:
        raise SeparationViolated(
            f"perturbation {magnitude} exceeds half the separation tolerance")
    rng = random.Random(seed)
    strands = []
    for bps in braid.strands:
        out = []
        for t, z in bps:
            if 0.0 < t < 1.0:
                z = z + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * magnitude
            out.append((t, z))
        strands.append(tuple(out))
    return GeomBraid(braid.n, tuple(strands))


def resample(braid: GeomBraid, factor: int = 2) -> GeomBraid:
    """Insert factor-1 collinear midpoints per segment; same paths. More
    than braidword.MAX_LETTERS segments in all are refused."""
    if integer(factor, "factor") < 1:
        raise ValueError("factor must be positive")
    if sum(len(bps) - 1 for bps in braid.strands) * factor > MAX_LETTERS:
        raise ValueError(f"resampling would write more than {MAX_LETTERS} "
                         f"segments")
    strands = []
    for bps in braid.strands:
        out = [bps[0]]
        for (t0, z0), (t1, z1) in zip(bps, bps[1:]):
            for s in range(1, factor):
                u = s / factor
                out.append((t0 + (t1 - t0) * u, z0 + (z1 - z0) * u))
            out.append((t1, z1))
        strands.append(tuple(out))
    return GeomBraid(braid.n, tuple(strands))


def concat(first: GeomBraid, second: GeomBraid) -> GeomBraid:
    """Run first then second on half time each; end and start configurations
    must agree exactly."""
    if first.n != second.n:
        raise ValueError("strand counts differ")
    if first.end_config() != second.start_config():
        raise ValueError("braids do not share the junction configuration")
    strands = []
    for a, b in zip(first.strands, second.strands):
        head = [(t / 2, z) for t, z in a]
        tail = [(0.5 + t / 2, z) for t, z in b[1:]]
        strands.append(tuple(head + tail))
    return GeomBraid(first.n, tuple(strands))


# -- winding -----------------------------------------------------------------------


def _winding(polygon: list[complex], i: int, j: int) -> int:
    """Exact turns about 0 of pair (i, j)'s closed polygon z_i - z_j at the
    grid times: the signed count of edges a -> b crossing the positive real
    axis, upward if Im a <= 0 < Im b, on the side of 0 (never at 0:
    separation) that the sign of Re a Im b - Im a Re b gives, by the float
    products unless they tie (rounding is monotone, overflow to infinity
    too), else by Fraction."""
    if polygon[-1] != polygon[0]:
        raise NonIntegerWinding(f"pair ({i},{j}) does not return to its start")
    ups = [z.imag > 0.0 for z in polygon]
    count = 0
    for e in compress(range(len(ups) - 1), map(ne, ups, ups[1:])):
        a, b = polygon[e], polygon[e + 1]
        left, right = a.real * b.imag, a.imag * b.real
        if left == right:
            left, right = (Fraction(a.real) * Fraction(b.imag),
                           Fraction(a.imag) * Fraction(b.real))
        if (left > right) == ups[e + 1]:
            count += (left > right) - (left < right)
    return count


def linking_number(braid: GeomBraid, i: int, j: int) -> int:
    """Integer winding of strand i around strand j (symmetric): the _winding
    of z_i - z_j, computed once per ordered pair and braid. A refusal is
    not kept, so it is raised, naming the pair, on every call."""
    _check_strand(braid, i)
    _check_strand(braid, j)
    if i == j:
        raise ValueError(f"strand {i} has no winding with itself")
    zi, zj = braid._paths[i - 1], braid._paths[j - 1]
    windings = braid._windings
    if (i, j) not in windings:
        windings[i, j] = _winding(list(map(sub, zi, zj)), i, j)
    return windings[i, j]


# -- root finding on linear models --------------------------------------------


def _pair_quartic(num, den):
    """P = num * conj(den) for quadratic coefficient triples (constant
    first): the monomial and the Bernstein coefficients of P on [0, 1], the
    last one the product at u = 1, as the next segment's first one is."""
    n0, n1, n2 = num
    e0, e1, e2 = den[0].conjugate(), den[1].conjugate(), den[2].conjugate()
    a0 = n0 * e0
    a1 = n0 * e1 + n1 * e0
    a2 = n0 * e2 + n1 * e1 + n2 * e0
    a3 = n1 * e2 + n2 * e1
    a4 = n2 * e2
    return ((a0, a1, a2, a3, a4),
            (a0, a0 + a1 / 4, a0 + a1 / 2 + a2 / 6,
             a0 + 0.75 * a1 + a2 / 2 + a3 / 4,
             (n0 + n1 + n2) * (e0 + e1 + e2)))


def _horner(coeffs, u: float):
    """coeffs (constant first) at u by Horner; lengths 3 to 5 unrolled."""
    match coeffs:
        case (c0, c1, c2, c3, c4):
            return (((c4 * u + c3) * u + c2) * u + c1) * u + c0
        case (c0, c1, c2, c3):
            return ((c3 * u + c2) * u + c1) * u + c0
        case (c0, c1, c2):
            return (c2 * u + c1) * u + c0
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u + c
    return acc


def _ray_lines(d: int):
    """(ray, far, w) per line of the d-th reading, ray p in direction
    conj(w) and its far ray p + d/2 (None for odd d); the rays' spacing,
    2 pi / d. Ray r lies on line r mod the number of lines."""
    if d % 2:
        return [(ray, None, cmath.exp(-1j * TWO_PI * ray / d))
                for ray in range(d)], TWO_PI / d
    return [(ray, ray + d // 2, cmath.exp(-1j * TWO_PI * ray / d))
            for ray in range(d // 2)], TWO_PI / d


def _ray_roots(coeffs, bern, lines, t0: float, h: float,
               pair: tuple[int, int], what: str
               ) -> list[tuple[float, int | None, bool | None]]:
    """(u, ray, sense) per root u on a segment at which N/D is on a line of
    _ray_lines, P = N conj(D) given by _pair_quartic; ray is the line's own
    where Re(w P) >= 0, else its far one. sense is Im s > 0 for the slope
    s = w P'(u), whether Im(w P) rises through 0, or None where |Im s| <=
    GENERICITY_TOL |s|: a tangential crossing, P meeting the line at an
    angle below the margin. NonGenericInput: N/D on a line all along the
    segment (a persistent `what`) unless Re(w P) < 0 keeps it on a far side
    that holds no ray; on such a side _isolate drops roots it cannot
    separate as well. P is finite: its vectors come from a _frame."""
    roots = []
    c0, c1, c2, c3, c4 = bern
    slope = (coeffs[1], 2.0 * coeffs[2], 3.0 * coeffs[3], 4.0 * coeffs[4])
    for ray, far, w in lines:
        # the exclusion test is the hot path, hence unrolled
        b0, b1, b2 = (w * c0).imag, (w * c1).imag, (w * c2).imag
        b3, b4 = (w * c3).imag, (w * c4).imag
        if b0 > 0.0 and b1 > 0.0 and b2 > 0.0 and b3 > 0.0 and b4 > 0.0 \
                or b0 < 0.0 and b1 < 0.0 and b2 < 0.0 and b3 < 0.0 and b4 < 0.0:
            continue
        if not (b0 or b1 or b2 or b3 or b4):
            if far is None and all((w * c).real < 0.0 for c in bern):
                continue
            raise NonGenericInput(f"persistent {what}", time=t0, pair=pair)
        far_side = None if far is not None else [(w * c).real for c in bern]
        for u in _isolate([(w * c).imag for c in coeffs], [b0, b1, b2, b3, b4],
                          t0, h, pair, far_side):
            s = w * _horner(slope, u)
            sense = None if abs(s.imag) <= GENERICITY_TOL * abs(s) \
                else s.imag > 0.0
            roots.append((u, ray if (w * _horner(coeffs, u)).real >= 0.0
                          else far, sense))
    return roots


def _isolate(coeffs, bern, t0: float, h: float, pair: tuple[int, int],
             far_side=None) -> list[float]:
    """Real roots of a real quartic on a segment, given by its monomial and
    its Bernstein coefficients on [0, 1].

    Roots in (0, 1] count, and a root at 0 too past the first segment (the
    previous segment may miss it by rounding). By Descartes' rule in the
    Bernstein basis, the roots in an open interval are at most the sign
    variations of the Bernstein coefficients there, and as many mod 2. So
    halving by de Casteljau runs until each piece has at most one variation,
    and a piece with one is refined to BISECTION_TOL in t (_refine), at once
    if it is the whole segment and no coefficient is 0 (most are). Pieces
    that keep two variations down to GENERICITY_TOL in t hold roots too
    close to tell apart, and raise NonGenericInput, unless far_side, the
    Bernstein coefficients of Re(w P) on [0, 1] for a line with no far
    ray, halved along with the piece, is negative all over it: then the
    roots lie on the side of the line that holds no ray, and are dropped."""
    b0, b1, b2, b3, b4 = bern
    if b0 and b1 and b2 and b3 and b4:
        s0, s1, s2, s3 = b0 > 0.0, b1 > 0.0, b2 > 0.0, b3 > 0.0
        if (s0 != s1) + (s1 != s2) + (s2 != s3) + (s3 != (b4 > 0.0)) == 1:
            return [_refine(coeffs, 0.0, 1.0, bern, s0, h)]
    roots = [0.0] if t0 > 0.0 and b0 == 0.0 else []
    if b4 == 0.0:
        roots.append(1.0)
    todo = [(0.0, 1.0, bern, far_side)]
    while todo:
        lo, hi, b, far_b = todo.pop()
        signs = [x > 0.0 for x in b if x != 0.0]
        changes = sum(s != r for s, r in zip(signs, signs[1:]))
        if changes == 1:
            roots.append(_refine(coeffs, lo, hi, b, signs[0], h))
        elif changes > 1:
            if (hi - lo) * h <= GENERICITY_TOL:
                if far_b is not None and all(x < 0.0 for x in far_b):
                    continue
                raise NonGenericInput("real roots closer than the genericity "
                                      "margin", time=t0 + h * lo, pair=pair)
            mid = (lo + hi) / 2
            left, right = _halve(b)
            far_left, far_right = (None, None) if far_b is None \
                else _halve(far_b)
            if right[0] == 0.0:
                roots.append(mid)
            todo += [(lo, mid, left, far_left), (mid, hi, right, far_right)]
    return sorted(roots)


def _halve(b):
    """Bernstein coefficients of both halves of the interval (de Casteljau)."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [(x + y) / 2 for x, y in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


def _refine(coeffs, lo: float, hi: float, b, positive_at_lo: bool,
            h: float) -> float:
    """The one sign change of a real polynomial in (lo, hi), to BISECTION_TOL
    in t; b is its Bernstein coefficients there, positive_at_lo its sign just
    right of lo. Illinois steps (Dowell & Jarratt 1971): regula falsi that
    halves the value at the end it keeps if the step before kept that end
    too, or is the first. bound is bisection's width after as many
    evaluations, times 4; a step that could leave the bracket wider than
    bound (or an end with value 0, a root counted already) is a halving, so
    no root costs more evaluations than bisection plus 2."""
    flo, fhi, side, bound = b[0], b[-1], 0, 4.0 * (hi - lo)
    while (hi - lo) * h > BISECTION_TOL:
        bound /= 2
        x = lo + (hi - lo) * flo / (flo - fhi) if flo and fhi else lo
        if not lo < x < hi or hi - lo > bound:
            x = (lo + hi) / 2
        fx = _horner(coeffs, x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == positive_at_lo:
            lo, flo, fhi, side = x, fx, fhi / 2 if side >= 0 else fhi, 1
        else:
            hi, fhi, flo, side = x, fx, flo / 2 if side <= 0 else flo, -1
    return (lo + hi) / 2


def _finish(events: list[Event]) -> tuple[Event, ...]:
    """Events sorted by time, checked for spacing. A root at the end of one
    segment and the start of the next is one event if sign and ne agree."""
    events.sort(key=lambda e: e.time)
    out: list[Event] = []
    for e in events:
        if out and (e.i, e.j, e.sign, e.ne) == \
                (out[-1].i, out[-1].j, out[-1].sign, out[-1].ne) \
                and abs(e.time - out[-1].time) < _DEDUPE_GAP:
            continue
        out.append(e)
    for e in out:
        if e.time < GENERICITY_TOL or e.time > 1.0 - GENERICITY_TOL:
            raise NonGenericInput("event at the time boundary", time=e.time)
    for a, b in zip(out, out[1:]):
        if b.time - a.time < GENERICITY_TOL:
            raise NonGenericInput("events closer than the genericity margin",
                                  time=a.time)
    return tuple(out)


# -- cylinder extraction ---------------------------------------------------------------


def cylinder_events(braid: GeomBraid, k: int,
                    cut_angle: float | None = None) -> tuple[Event, ...]:
    """Generic events seen from strand k, sorted by time: 'crossing' of two
    strands aligned as seen from k, 'cut' of a strand passing the cut: the
    ray from k away from the centroid, or the fixed direction cut_angle, a
    finite angle. Each is a ratio of linear forms on ray 0, found as the d=1
    ray reading; the sense _ray_roots gives a root decides its sign, Im(P)
    falling through 0 being a rising angle, and a tangential one is
    refused. A root at which the cut direction is n GENERICITY_TOL short,
    in the units of the _frame of strand k, is refused on either side of
    the line. The events are found once per braid, k and cut, keyed by k,
    a plain int as every strand argument must be, and by the cut's exact
    float value, -0.0 apart from 0.0: a repeat returns the same tuple."""
    n = braid.n
    if n < 3:
        raise ValueError("need at least 3 strands")
    if not 1 <= integer(k, "k") <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    if cut_angle is not None and not math.isfinite(cut_angle):
        raise ValueError(f"cut angle must be finite, not {cut_angle}")
    key = (k, None if cut_angle is None else float(cut_angle).hex())
    if key not in braid._cylinder:
        braid._cylinder[key] = _cylinder_events(braid, k, cut_angle)
    return braid._cylinder[key]


def _cylinder_events(braid: GeomBraid, k: int, cut_angle: float | None):
    n, k0 = braid.n, k - 1
    others = [s for s in range(n) if s != k0]
    # the vectors z_s - z_k, then the cut direction: fixed, or n (z_k -
    # centroid)
    if cut_angle is None:
        def cut(z, unit):
            return [n * x[k0] - sum(x) for x in zip(*z)]
    else:
        fixed = cmath.exp(1j * cut_angle)

        def cut(z, unit):
            return [fixed if unit else 0j] * len(z[0])
    points, values, segments = _frame(braid.times, braid._paths, k0,
                                      range(n), cut)
    # a strand vector's values are one rounding of exactly scaled points,
    # its increments the difference of two steps, each rounded against its
    # own strand's points: so its rounding is relative to |z_s| + |z_k|;
    # the cut vector's, a sum over every strand, to the strands' summed |z|
    mags = [list(map(abs, z)) for z in points]
    sizes = [list(map(add, m, mags[k0])) for m in mags] + \
        [list(map(sum, zip(*mags)))]
    ranges = [None if s == k0 else
              _angle_range(v, [x + y for x, y in zip(c, c[1:])])
              for s, (v, c) in enumerate(zip(values, sizes))]
    lines, _ = _ray_lines(1)
    # strand pairs, then each strand against the cut, vector n
    items = [(si, sj, (si + 1, sj + 1), "alignment")
             for ia, si in enumerate(others) for sj in others[ia + 1:]] + \
        [(l, n, (l + 1, k), "cut passage") for l in others]
    # segment by segment, so events are found and refused in time order;
    # filtered at the line's spacing, pi, not the ray's, as a degenerate cut
    # is refused on either side of the line
    hits = sorted((g, x) for x, (sa, sb, _, _) in enumerate(items)
                  for g in _candidates(ranges[sa], ranges[sb], math.pi))
    events: list[Event] = []
    for g, x in hits:
        t0, h, vals, incs = segments[g]
        sa, sb, pair, what = items[x]
        coeffs, bern = _pair_quartic((vals[sa], incs[sa], 0j),
                                     (vals[sb], incs[sb], 0j))
        for u, ray, sense in _ray_roots(coeffs, bern, lines, t0, h, pair, what):
            t, wv = t0 + h * u, vals[n] + incs[n] * u
            # a passage is refused on either side, before the side test
            if (sb == n or ray is not None) and abs(wv) <= n * GENERICITY_TOL:
                raise NonGenericInput("cut direction degenerate", time=t,
                                      pair=pair)
            if ray is None:
                continue
            if sense is None:
                raise NonGenericInput(f"tangential {what}", time=t, pair=pair)
            rising = not sense    # Im(P) falls through 0
            events.append(
                Event(t, sa + 1, k, "cut", sign=1 if rising else -1)
                if sb == n else _cylinder_crossing(
                    vals, incs, others, wv, u, t, pair, rising))
    return _finish(events)


def _frame(times, paths, k0: int, watched, far):
    """The segments every reading reads, in the frame of strand k0, from
    each strand's points at the grid times. The points are scaled by f, the
    power of two that brings the longest z_s - z_k0 into [1/2, 1), but
    keeps |z_k0| below 2^52: a difference below the points' rounding asks
    no more, and no scaled point or sum of them overflows. The scaling is
    exact and the readings invariant under it, so they read the same at
    every scale, until a vector so much shorter than the longest that a
    product of it underflows.

    Returns (points, values, segments): each strand's scaled points; the
    breakpoint values of z_s - z_k0 for each watched strand s, then of the
    far vector; per grid interval the one segment shape every reading
    reads, (t0, h, vals, incs), each vector vals[v] + incs[v]*u for u in
    [0, 1], the far one last. far(z, f) is the far vector at the grid times
    of the scaled points z, far(q, 0.0) its increments of theirs. Every
    vector comes from the scaled points by the formula it would take on the
    braid's own."""
    big = max(max(map(abs, map(sub, path, paths[k0]))) for path in paths)
    big = max(big, sys.float_info.epsilon * max(map(abs, paths[k0])))
    f = math.ldexp(1.0, -math.frexp(big)[1])
    points = [list(map(complex(f).__mul__, path)) for path in paths]
    steps = [list(map(sub, path[1:], path)) for path in points]
    a = [list(map(sub, points[s], points[k0])) for s in watched]
    da = [list(map(sub, steps[s], steps[k0])) for s in watched]
    values, incs = a + [far(points, f)], da + [far(steps, 0.0)]
    return points, values, list(zip(times, map(sub, times[1:], times),
                                    zip(*values), zip(*incs)))


def _cylinder_crossing(vals, incs, others, wv: complex, u: float, t: float,
                       pair: tuple[int, int], rising: bool) -> Event:
    """Slot and sign of an alignment, from the angular coordinates of every
    other strand measured from the cut direction wv, on a cylinder segment
    (t0, h, vals, incs); the strand farther from k passes over."""
    si, sj = pair[0] - 1, pair[1] - 1
    ui = vals[si] + incs[si] * u
    vj = vals[sj] + incs[sj] * u
    f_pair = (cmath.phase(wv) - cmath.phase(ui)) % TWO_PI
    below = 0
    for l in others:
        if l in (si, sj):
            continue
        fl = (cmath.phase(wv) - cmath.phase(vals[l] + incs[l] * u)) % TWO_PI
        gap = abs(fl - f_pair)
        if min(gap, TWO_PI - gap) < GENERICITY_TOL:
            raise NonGenericInput("triple alignment", time=t, pair=pair)
        if fl < f_pair:
            below += 1
    ri, rj = abs(ui), abs(vj)
    if abs(ri - rj) <= GENERICITY_TOL * max(ri, rj):
        raise NonGenericInput("radial tie at alignment", time=t, pair=pair)
    return Event(t, *pair, "crossing", slot=1 + below,
                 sign=1 if (ri > rj) != rising else -1)


def cylinder_reading(braid: GeomBraid, k: int, d: int | None = None,
                     cut_angle: float | None = None
                     ) -> tuple[tuple[Event, ...], Word]:
    """Full cylinder pipeline seen from strand k: the events, and the word on
    n-1 strands they spell. Crossings stay crossings and each cut passage
    becomes a z, a cylinder word; for a given d, homs.f_d of it, a
    rotation-virtual word. The word is the translation
    homs.strand_removal_letters makes from strand k's start position, so it
    is defined for any braid, pure or not; only p_k, its restriction to
    pure braids, refuses one that is not."""
    if d is not None and integer(d, "d") < 1:
        raise ValueError("d must be positive")
    events = cylinder_events(braid, k, cut_angle)
    word = Word(GroupId("CPB", braid.n - 1), free_reduce_letters(
        sigma(e.slot, e.sign) if e.cls == "crossing" else zeta(e.sign)
        for e in events))
    return events, word if d is None else f_d(word, d)


def power_map_extract(braid: GeomBraid, k: int, d: int,
                      cut_angle: float | None = None) -> Word:
    """Word of the d-th power reading, homs.f_d of the cylinder word."""
    return cylinder_reading(braid, k, d, cut_angle)[1]


# -- pair normalization ------------------------------------------------------------------


@dataclass(frozen=True)
class PuncturedView:
    """A braid punctured at its strands k0 and l0 (0-based), sent to 0 and 1
    by g = (z - z_k)/(z_l - z_k); the others are 1..n in original order.
    model is what every reading of the view works on, built once by q_kl:
    the segments of the _frame of strand k, watching the others against the
    far vector z_l - z_k, and per watched strand its _angle_ranges entry."""

    braid: GeomBraid
    k0: int
    l0: int
    model: tuple[list, list] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.braid.n - 2

    def start_config(self) -> tuple[complex, ...]:
        _, _, (*a, c), _ = self.model[0][0]
        return tuple(x / c for x in a)


def q_kl(braid: GeomBraid, k: int, l: int) -> PuncturedView:
    """Send strands k and l to the punctures 0 and 1; requires every pairwise
    linking_number to vanish, and no other strand ever within GENERICITY_TOL
    * |z_l - z_k| of z_k or z_l, by _approach: interval by interval, strand
    by strand, the puncture at k before the one at l. Then it builds the
    view's model once (PuncturedView)."""
    n = braid.n
    if n < 4:
        raise ValueError("need at least 4 strands")
    if integer(k, "k") == integer(l, "l") \
            or not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"bad pair ({k},{l})")
    for i, j in combinations(range(1, n + 1), 2):
        if linking_number(braid, i, j) != 0:
            raise NonZeroLinking("winding must vanish", pair=(i, j))
    k0, l0 = k - 1, l - 1
    watched = [s for s in range(n) if s not in (k0, l0)]
    hit = _approach(braid, [(s, x) for s in watched for x in (k0, l0)],
                    (k0, l0), GENERICITY_TOL)
    if hit is not None:
        (s, _), t = hit
        raise PunctureCollision(f"strand {s + 1} touches a puncture "
                                f"near t={t:.6f}")
    _, values, segments = _frame(braid.times, braid._paths, k0, watched,
                                 lambda z, unit: list(map(sub, z[l0], z[k0])))
    return PuncturedView(braid, k0, l0, (segments, _angle_ranges(values)))


def _pair_model(braid: GeomBraid | PuncturedView):
    """(segments, ranges) a pair reading works on: a view's model, or one
    built per call for a plain GeomBraid as for a view whose punctures 0
    and 1 are two strands that never move."""
    if isinstance(braid, PuncturedView):
        return braid.model
    n, times = braid.n, braid.times
    fixed = ([0j] * len(times), [1 + 0j] * len(times))
    _, values, segments = _frame(
        times, braid._paths + fixed, n, range(n),
        lambda z, unit: list(map(sub, z[n + 1], z[n])))
    return segments, _angle_ranges(values)


def initial_order(braid: GeomBraid | PuncturedView) -> tuple[int, ...]:
    """Strand ids sorted by starting position, left to right."""
    starts = [(z.real, z.imag, idx + 1) for idx, z in enumerate(braid.start_config())]
    return tuple(idx for _, _, idx in sorted(starts))


# -- crossing classification --------------------------------------------------------------


def _cross_ratio_models(ai, dai, aj, daj, c, dc, method: str):
    """Quadratic numerator and denominator (coefficients, constant first) of
    the classifier on a segment, from ai + dai*u, aj + daj*u and c + dc*u
    seen from the puncture at 0: c^2 times the normalized ones, same rays."""
    if method == "cross-ratio":
        # a_i b_j / (b_i a_j), b = a - c
        bi, dbi, bj, dbj = ai - c, dai - dc, aj - c, daj - dc
        num = (ai * bj, ai * dbj + dai * bj, dai * dbj)
        den = (bi * aj, bi * daj + dbi * aj, dbi * daj)
    else:
        # mobius: a_j (c - a_i) / ((c - 2 a_i) a_j + a_i c)
        e, de = c - ai, dc - dai
        f, df = c - 2 * ai, dc - 2 * dai
        num = (aj * e, aj * de + daj * e, daj * de)
        den = (f * aj + ai * c, f * daj + df * aj + ai * dc + dai * c,
               df * daj + dai * dc)
    return num, den


def psi_events(braid: GeomBraid | PuncturedView,
               method: str = "cross-ratio") -> tuple[Event, ...]:
    """Events of a braid in the plane punctured at 0 and 1, or of a view: per
    pair, the real crossings of the classifier function, with class and
    negative-end strand. With the cross ratio this is the d=2 reading."""
    if method not in ("cross-ratio", "mobius"):
        raise ValueError(f"unknown method {method!r}")
    return _pair_events(braid, method, 2)


def psi_d_events(braid: GeomBraid | PuncturedView, d: int) -> tuple[Event, ...]:
    """Events of the d-th power reading in the punctured plane: per pair, the
    pair ratio sweeps through the rays at angles 2 pi p / d; ray 0 gives a
    classical crossing, the others are flat; d is at most MAX_LETTERS."""
    if not 2 <= integer(d, "d") <= MAX_LETTERS:
        raise ValueError(f"power readings need 2 <= d <= {MAX_LETTERS}")
    return _pair_events(braid, "cross-ratio", d)


def _angle_ranges(values):
    """Per watched vector a of a pair _frame's breakpoint values, the bound
    of arg a - arg b, b = a - c for c the far vector, the last: the
    difference of the two vectors' _angle_range centres, the sum of their
    half-widths. The rounding of both is relative to c too."""
    *watched, c = values
    mags = list(map(abs, c))
    cs = [x + y for x, y in zip(mags, mags[1:])]
    ranges = []
    for a in watched:
        ca, ha = _angle_range(a, cs)
        cb, hb = _angle_range(list(map(sub, a, c)), cs)
        ranges.append((list(map(sub, ca, cb)), list(map(add, ha, hb))))
    return ranges


def _angle_range(values, cs):
    """(centres, half-widths) per segment of intervals holding, up to 2 pi,
    the angle of a vector given at the breakpoints: monotone on a segment,
    between its unwound values at the ends. A vector 0 there is unbound:
    centres 0, half-widths infinite. It is the one builder of an angle
    bound: the cylinder bounds each of its vectors by it, and a pair
    reading both vectors of each watched strand (_angle_ranges); and
    _candidates is the one filter that reads the bounds.

    A ratio's P has as Bernstein coefficients positive sums of products of
    its vectors' end values, four for a cross ratio, two for the cylinder,
    whose rounding against them is a small multiple of the product of their
    kappa = (|v0| + |v1| + cs) / min(|v0|, |v1|), cs per segment this
    vector's own: the other sizes its rounding is relative to, at both
    ends (for a cylinder strand vector |z_s| + |z_k|, for the cut every
    strand's |z|, for a pair reading the far vector's). As kappa >= 2, by
    the AM-GM inequality the allowances _ARG_ROUNDING * kappa^4 of four
    vectors, or of two, bound that product, and the rounding of the
    breakpoint angles too. The allowance is a product of floats, so a kappa
    too large for it gives an infinite half-width, an unbound segment,
    rather than raising."""
    mags = [abs(v) for v in values]
    if 0.0 in mags:
        return [0.0] * len(cs), [math.inf] * len(cs)
    base = cmath.phase(values[0])
    turns = list(accumulate(map(cmath.phase, map(truediv, values[1:], values)),
                            initial=0.0))
    return ([base + (t0 + t1) * 0.5 for t0, t1 in zip(turns, turns[1:])],
            [abs(t1 - t0) * 0.5 + _ARG_ROUNDING * k * k * k * k
             for t0, t1, m0, m1, mc in zip(turns, turns[1:], mags, mags[1:], cs)
             for k in [(m0 + m1 + mc) / (m0 if m0 < m1 else m1)]])


def _candidates(first, second, spacing: float) -> list[int]:
    """The indices of the segments on which the angle difference of two
    _angle_range bounds (centres, half-widths), first's less second's, can
    meet a multiple of spacing: every other segment has no root on a ray.
    It is the one filter of every reading: a pair reading passes its rays'
    spacing, 2 pi / d, the cylinder its line's, pi."""
    (ca, ha), (cb, hb) = first, second
    return [g for g, xa, xb, ra, rb in zip(range(len(ca)), ca, cb, ha, hb)
            if not (radius := ra + rb) < (xa - xb) % spacing < spacing - radius]


def _pair_events(braid: GeomBraid | PuncturedView, method: str, d: int):
    """Events of the d-th reading, every pair of strands segment by segment.
    The ratio N/D lies on ray p where Im(w P) = 0 < Re(w P), w = e^(-2 pi
    i p/d); for even d, rays p and p + d/2 share the line of w and are
    told apart by the sign of Re(w P), so each line is isolated once. The
    rays lie at the multiples of the spacing 2 pi / d, and arg(N/D) =
    (arg a_i - arg b_i) - (arg a_j - arg b_j): a segment whose bound on it
    misses every ray has no root on one, and the one segment filter,
    _candidates, drops it. A segment it keeps is isolated on the lines of
    the rays its bound reaches alone, in ascending order, or on every line
    if the bound spans half a turn or more. The mobius ratio m is real
    exactly where N/D = (1 - m)/m is."""
    lines, spacing = _ray_lines(d)
    segments, ranges = _pair_model(braid)
    nl, half = len(lines), spacing / 2
    events: list[Event] = []
    for i0 in range(braid.n):
        for j0 in range(i0 + 1, braid.n):
            pair = (i0 + 1, j0 + 1)
            (ca, ha), (cb, hb) = ranges[i0], ranges[j0]
            for g in _candidates(ranges[i0], ranges[j0], spacing):
                # a bound below half a turn reaches the rays the filter's
                # own divmod gives: below half the spacing the one it saw,
                # else the run it spans; ray r lies on line r mod nl
                reached = lines
                if nl > 1 and (radius := ha[g] + hb[g]) < math.pi / 2:
                    q, rem = divmod(ca[g] - cb[g], spacing)
                    if radius < half:
                        reached = [lines[(int(q) + (rem > radius)) % nl]]
                    else:
                        lo = int(q) + math.ceil((rem - radius) / spacing)
                        hi = int(q) + math.floor((rem + radius) / spacing)
                        reached = [lines[x] for x in
                                   sorted({r % nl for r in range(lo, hi + 1)})]
                t0, h, vals, incs = segments[g]
                num, den = _cross_ratio_models(vals[i0], incs[i0], vals[j0],
                                               incs[j0], vals[-1], incs[-1],
                                               method)
                for u, ray, sense in _ray_roots(*_pair_quartic(num, den),
                                                reached, t0, h, pair,
                                                "crossing"):
                    if ray is not None:
                        events.append(_classify(num, den, u, t0 + h * u, *pair,
                                                method, ray, d, sense))
    return _finish(events)


def _classify(num, den, u: float, t: float, i: int, j: int, method: str,
              ray: int, d: int, sense: bool | None) -> Event:
    """Event of pair (i, j) at a root on ray `ray` of the d-th reading, with
    the sense _ray_roots gave it. A ratio within GENERICITY_TOL of a
    puncture is refused; so is a root at which Re(w P) = 0, where N conj(D)
    vanishes, and a tangential one. The negative end is j where Im(w P)
    rises, unless the reading runs against the line's cross ratio (flip):
    the mobius ratio m does, as (1 - m)/m falls through the real line where
    m rises through it, and so does a far ray p + d/2 other than d/2."""
    nv, dv = _horner(num, u), _horner(den, u)
    val = nv / dv if dv else math.inf
    # a val past the coordinate bound of GeomBraid is a pole in floats, and
    # one inside it has a finite abs; a guard not yet below the margin
    # keeps |dv / nv|, about 1 / |val|, below 1 / GENERICITY_TOL
    if not abs(val.real) < sys.float_info.max / 4 > abs(val.imag):
        raise NonGenericInput("classifier function blows up", time=t,
                              pair=(i, j))
    x = val.real
    guard = min(abs(val), abs(val - 1.0))
    if method != "mobius" and nv and guard >= GENERICITY_TOL:
        # the cross ratio's third puncture is infinity; the mobius function
        # has it at 0
        guard = min(guard, abs(dv / nv))
    if guard < GENERICITY_TOL:
        raise NonGenericInput("crossing at a puncture boundary", time=t,
                              pair=(i, j))
    if method == "mobius":
        if abs(x - 0.5) < GENERICITY_TOL or abs(x) < GENERICITY_TOL:
            raise NonGenericInput("crossing class at boundary", time=t,
                                  pair=(i, j))
        if 0.5 < x < 1.0:
            cls = "classical_over"
        elif 0.0 < x < 0.5:
            cls = "classical_under"
        else:
            cls = "flat"
    elif ray == 0:
        cls = "classical_over" if x < 1.0 else "classical_under"
    else:
        cls = "flat"
    if sense is None:
        raise NonGenericInput("tangential crossing", time=t, pair=(i, j))
    flip = method == "mobius" or (d % 2 == 0 and 2 * ray > d)
    return Event(t, i, j, cls, j if sense != flip else i)


# -- realization --------------------------------------------------------------------------


def realize_flat_virtual(events: Iterable[Event], m: int,
                         scheme: str = "route-and-return",
                         initial_order: Sequence[int] | None = None) -> Word:
    """Flat-virtual word on m strands realizing an event list.

    Every event contributes a block that transposes its pair; virtual
    letters route distant strands together and, at the end, restore the
    deterministic final order shared by both schemes, so the resulting group
    element does not depend on the routing. A word past
    braidword.MAX_LETTERS letters is refused, and no event after the one
    that takes it past the cap is spelled.
    """
    if scheme not in ("route-and-return", "swap-in-place"):
        raise ValueError(f"unknown scheme {scheme!r}")
    order = list(initial_order) if initial_order is not None \
        else list(range(1, m + 1))
    if sorted(order) != list(range(1, m + 1)):
        raise ValueError("initial_order must be a permutation of 1..m")
    letters: list[Letter] = []
    target, work = list(order), list(order)
    for ev in events:
        if ev.ne not in (ev.i, ev.j):
            raise ValueError("negative end must belong to the event pair")
        ia, ja = target.index(ev.i), target.index(ev.j)
        target[ia], target[ja] = target[ja], target[ia]
        pa = work.index(ev.i) + 1
        pb = work.index(ev.j) + 1
        a, b = min(pa, pb), max(pa, pb)
        if ev.cls == "flat":
            cross = pi
        elif ev.cls in ("classical_over", "classical_under"):
            over = ev.j if ev.cls == "classical_over" else ev.i
            cross = partial(sigma, power=1 if over == ev.ne else -1)
        else:
            raise ValueError(f"cannot realize class {ev.cls!r}")
        if scheme == "route-and-return":
            ne_at_b = work[b - 1] == ev.ne
            letters.extend(tau(x) for x in range(b - 1, a, -1))
            if ne_at_b:
                letters.append(cross(a))
            else:
                letters.extend((tau(a), cross(a), tau(a)))
            letters.extend(tau(x) for x in range(a + 1, b))
            work[a - 1], work[b - 1] = work[b - 1], work[a - 1]
        else:
            for x in range(a, b - 1):
                letters.append(tau(x))
                work[x - 1], work[x] = work[x], work[x - 1]
            if work[b - 1] != ev.ne:
                letters.append(tau(b - 1))
                work[b - 2], work[b - 1] = work[b - 1], work[b - 2]
            letters.append(cross(b - 1))
            work[b - 2], work[b - 1] = work[b - 1], work[b - 2]
        if len(letters) > MAX_LETTERS:
            break
    for pos in range(m):
        want = target[pos]
        cur = work.index(want)
        while cur > pos:
            letters.append(tau(cur))
            work[cur - 1], work[cur] = work[cur], work[cur - 1]
            cur -= 1
    if len(letters) > MAX_LETTERS:
        raise ValueError(f"realized word would have more than {MAX_LETTERS} "
                         f"letters")
    return Word(GroupId("FVB", m), free_reduce_letters(letters))


def pair_reading(braid: GeomBraid, k: int, l: int, d: int | None = None,
                 scheme: str = "route-and-return") -> tuple[tuple[Event, ...], Word]:
    """Full plane-pair pipeline: normalize (k, l) to the punctures, detect
    events, realize them as a flat-virtual word on n-2 strands. Returns the
    events and the word."""
    punctured = q_kl(braid, k, l)
    events = psi_events(punctured) if d is None else psi_d_events(punctured, d)
    return events, realize_flat_virtual(events, punctured.n, scheme,
                                        initial_order=initial_order(punctured))


def flat_virtual_word(braid: GeomBraid, k: int, l: int, d: int | None = None,
                      scheme: str = "route-and-return") -> Word:
    """Word of pair_reading."""
    return pair_reading(braid, k, l, d, scheme)[1]


# -- serialization -------------------------------------------------------------------------


def braid_to_json(braid: GeomBraid) -> dict:
    return {"n": braid.n, "pure": braid.pure,
            "strands": [[[t, z.real, z.imag] for t, z in bps]
                        for bps in braid.strands]}


def braid_from_json(data) -> GeomBraid:
    try:
        n = integer(data["n"], "n")
        strands = tuple(
            tuple((float(t), complex(re, im)) for t, re, im in bps)
            for bps in data["strands"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed braid JSON: {exc}") from exc
    return GeomBraid(n, strands)


def events_to_json(events: Iterable[Event]) -> list[dict]:
    return [e.to_json() for e in events]


# -- drawing ---------------------------------------------------------------------------------

_PALETTE = ("#1d4ed8", "#b91c1c", "#047857", "#7c3aed", "#b45309",
            "#0e7490", "#be185d", "#4d7c0f", "#6b7280", "#92400e")

_MARK = {"classical_over": "#111827", "classical_under": "#6b7280",
         "flat": "#d97706", "crossing": "#111827", "cut": "#16a34a"}


def render_svg(braid: GeomBraid, marks: Iterable[dict] | None = None,
               width: int = 640, height: int = 800) -> str:
    """Strand chart, time running downward, horizontal = real part.
    Marks are event JSON records; colored by class."""
    xs = [z.real for bps in braid.strands for _, z in bps]
    lo, hi = min(xs), max(xs)
    span = (hi - lo) or 1.0
    pad = 40.0

    def sx(x: float) -> float:
        return pad + (x - lo) / span * (width - 2 * pad)

    def sy(t: float) -> float:
        return pad + t * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for idx, bps in enumerate(braid.strands):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(z.real):.2f},{sy(t):.2f}" for t, z in bps)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.4"/>')
        t0, z0 = bps[0]
        parts.append(f'<text x="{sx(z0.real):.2f}" y="{sy(t0) - 8:.2f}" '
                     f'font-size="11" fill="{color}">{idx + 1}</text>')
    for mark in marks or ():
        t = mark["t"]
        kind = mark.get("class") or mark.get("kind", "crossing")
        if "pair" in mark:
            i, j = mark["pair"]
            x = (braid.at(i, t).real + braid.at(j, t).real) / 2
        else:
            x = braid.at(mark["strand"], t).real
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(t):.2f}" r="4" '
                     f'fill="none" stroke="{_MARK.get(kind, "#111827")}" '
                     f'stroke-width="1.6"/>')
    parts.append("</svg>")
    return "\n".join(parts)
