import cmath
import functools
import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from braidrep import geom
from braidrep.braidword import (GroupId, format_word, parse_word,
                                random_zero_linking_word)
from braidrep.errors import BraidrepError, NonGenericInput, SeparationViolated
from braidrep.geom import (BISECTION_TOL, GENERICITY_TOL, TWO_PI,
                           Event, GeomBraid, _classify, _cross_ratio_models,
                           _cylinder_crossing, _finish, _frame, _pair_model,
                           _pair_quartic, _ray_lines, _ray_roots,
                           artin_dynamics, concat, cylinder_events,
                           cylinder_reading, flat_virtual_word, initial_order,
                           linking_number, pair_reading, perturb, psi_d_events,
                           psi_events, q_kl, realize_flat_virtual, resample)
from braidrep.homs import f_d
from braidrep.laurent import mat_mul, mat_to_text
from braidrep.rep import RHO, RHO_TILDE, word_image
from parity import (CUTS, aligned_at_half, bench_shaped, concyclic_at_half,
                    random_two_strand)


def two_strand(x0: float, v: float) -> GeomBraid:
    """Strand 1 parked at 1/2; strand 2 crosses the real axis at x0 with
    vertical speed v. One crossing event at t = 1/2."""
    gi = ((0.0, 0.5 + 0j), (1.0, 0.5 + 0j))
    gj = ((0.0, complex(x0, -v / 2)), (1.0, complex(x0, v / 2)))
    return GeomBraid(2, (gi, gj))


def signature(events):
    return [(round(e.time, 9), e.i, e.j, e.cls, e.ne) for e in events]


# -- classification ----------------------------------------------------------


def test_crossing_between_punctures_is_classical_over():
    ev = psi_events(two_strand(0.75, 0.4))
    assert signature(ev) == [(0.5, 1, 2, "classical_over", 1)]


def test_negative_end_follows_crossing_direction():
    ev = psi_events(two_strand(0.75, -0.4))
    assert signature(ev) == [(0.5, 1, 2, "classical_over", 2)]


def test_crossing_beyond_far_puncture_is_classical_under():
    ev = psi_events(two_strand(0.25, 0.4))
    assert signature(ev) == [(0.5, 1, 2, "classical_under", 1)]


def test_crossing_outside_segment_is_flat():
    ev = psi_events(two_strand(2.0, 0.4))
    assert signature(ev) == [(0.5, 1, 2, "flat", 1)]


@pytest.mark.parametrize("nv, dv", ((1.0, 0.0), (1e300, 1e-300),
                                    (-1e200j, 1e-200 + 1e-200j),
                                    (1e300 + 1e300j, 1e-8)))
@pytest.mark.parametrize("method", ("cross-ratio", "mobius"))
def test_classifier_pole_is_refused(nv, dv, method):
    # dv is 0, or so small against nv that their ratio overflows, or that
    # its length does
    with pytest.raises(NonGenericInput, match="classifier function blows up"):
        _classify((nv, 0j, 0j), (dv, 0j, 0j), 0.5, 0.5, 1, 2, method, 0, 2,
                  True)


def test_both_methods_agree_on_synthetic_cases():
    for x0, v in ((0.75, 0.4), (0.75, -0.4), (0.25, 0.4), (2.0, 0.4),
                  (-1.0, 0.3), (0.6, -0.2)):
        b = two_strand(x0, v)
        assert signature(psi_events(b)) == \
            signature(psi_events(b, method="mobius"))


def test_methods_agree_on_random_trajectories():
    rng = random.Random(71)
    compared = 0
    for _ in range(120):
        try:
            b = random_two_strand(rng)
            sig_cr = signature(psi_events(b))
            sig_mo = signature(psi_events(b, method="mobius"))
        except (NonGenericInput, ValueError):
            continue
        assert sig_cr == sig_mo
        compared += len(sig_cr)
    assert compared > 200


def test_power_two_reading_equals_plain_reading():
    rng = random.Random(52)
    for seed in range(4):
        w = random_zero_linking_word(6, random.Random(seed), factors=1)
        b = artin_dynamics(w, radial_spread=0.25)
        q = q_kl(b, 1, 4)
        assert signature(psi_events(q)) == signature(psi_d_events(q, 2))


def test_power_reading_on_synthetic_case():
    ev = psi_d_events(two_strand(0.75, 0.4), 3)
    assert signature(ev) == [(0.5, 1, 2, "classical_over", 1)]
    with pytest.raises(ValueError):
        psi_d_events(two_strand(0.75, 0.4), 1)


def test_pair_moving_along_the_real_line_is_refused():
    parked = ((0.0, 0.5 + 0j), (1.0, 0.5 + 0j))
    sliding = ((0.0, 2.0 + 0j), (1.0, 3.0 + 0j))
    b = GeomBraid(2, (parked, sliding))
    for read in (psi_events, lambda b: psi_d_events(b, 2)):
        with pytest.raises(NonGenericInput, match="persistent crossing"):
            read(b)


def test_pair_parked_off_every_ray_reads_nothing():
    # the cross ratio of strands parked at 1/2 and 2 stays at -1/2: on ray
    # pi, an event of the even readings, and on no ray of the d=3 reading
    b = GeomBraid(2, (((0.0, 0.5 + 0j), (1.0, 0.5 + 0j)),
                      ((0.0, 2.0 + 0j), (1.0, 2.0 + 0j))))
    assert psi_d_events(b, 3) == ()
    for read in (psi_events, lambda b: psi_d_events(b, 4)):
        with pytest.raises(NonGenericInput, match="persistent crossing"):
            read(b)


def touching(dy: float) -> GeomBraid:
    """Strand 2 comes to 3 + dy*i at t = 1/2 and turns back up: for dy = 0
    its cross ratio touches the real line at the breakpoint."""
    return GeomBraid(2, (((0.0, 2 + 0j), (1.0, 2 + 0j)),
                         ((0.0, 3 + 1j), (0.5, 3 + dy * 1j),
                          (1.0, 3.5 + 1j))))


def test_touch_at_a_pair_breakpoint_is_refused():
    # the segments on either side each see a root at the touch, with
    # opposite negative ends: two events too close to tell apart, not one
    # crossing
    for read in (psi_events, lambda b: psi_d_events(b, 4)):
        with pytest.raises(NonGenericInput, match="events closer than the "
                           "genericity margin at t=0.5"):
            read(touching(0.0))
        assert read(touching(1e-7)) == ()
        below = read(touching(-1e-7))
        assert [(e.cls, e.ne) for e in below] == \
            [("classical_under", 1), ("classical_under", 2)]


EVERY_READING = (psi_events, lambda b: psi_events(b, method="mobius"),
                 lambda b: psi_d_events(b, 2), lambda b: psi_d_events(b, 3),
                 lambda b: psi_d_events(b, 4))


@pytest.mark.parametrize("x0", (1 + 1e-10, 1 + 3e-10, 1e-10, 1.0, 0.0))
def test_crossing_at_a_puncture_is_refused_by_every_reading(x0):
    """With x0 near 1 the cross ratio passes within 1e-9 of the puncture 0,
    on a flat ray of every power reading; with x0 near 0 it passes beyond
    1e9, where the mobius function passes near 0. At x0 = 1 or 0, N conj(D)
    vanishes at the root, so no ray can be told; the root goes to the
    classifier's guards instead of being dropped."""
    b = two_strand(x0, 0.4)
    for read in EVERY_READING:
        with pytest.raises(NonGenericInput, match="puncture boundary|blows up"):
            read(b)


def test_mobius_class_boundary_is_refused():
    """Two strands far out, at 1e4, swap across the real axis 0.1 apart:
    at t = 1/2 their cross ratio X is within 1e-9 of 1, so the mobius ratio
    1 / (1 + X) is within GENERICITY_TOL of 1/2, between its two classical
    classes, though no puncture is near. The cross ratio reads the crossing."""
    a, gap = 1e4, 0.1
    b = GeomBraid(2, (((0.0, a - 1j), (1.0, a + 1j)),
                      ((0.0, a + gap + 1j), (1.0, a + gap - 1j))))
    with pytest.raises(NonGenericInput, match=r"crossing class at boundary "
                       r"at t=0\.5 for pair \(1, 2\)"):
        psi_events(b, method="mobius")
    assert signature(psi_events(b)) == [(0.5, 1, 2, "classical_under", 1)]


def test_unknown_method_is_refused_before_any_work():
    """No segment of this braid survives the angle filter, so no classifier
    is ever built; the method is refused all the same."""
    b = GeomBraid(2, (((0.0, 0.5 + 0.5j), (1.0, 0.5 + 0.5j)),
                      ((0.0, 2 + 1j), (0.5, 2.01 + 1j), (1.0, 2 + 1j))))
    assert psi_events(b) == psi_events(b, method="mobius") == ()
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        psi_events(b, method="bogus")


def ray_crossing(angle: float, r: float, turn: int) -> GeomBraid:
    """Strand 1 parked at (1 + i)/2; strand 2 runs straight through the
    point where the cross ratio of the pair is r e^(i angle), where the
    ratio crosses that ray at right angles, counterclockwise about 0 for
    turn = 1 and clockwise for turn = -1. One event at t = 1/2."""
    z1 = 0.5 + 0.5j
    c = z1 / (z1 - 1)                     # cross ratio c (z2 - 1) / z2
    z2 = c / (c - r * cmath.exp(1j * angle))
    step = 0.1 * r * turn * 1j * cmath.exp(1j * angle) * z2 * z2 / c
    return GeomBraid(2, (((0.0, z1), (1.0, z1)),
                         ((0.0, z2 - step / 2), (1.0, z2 + step / 2))))


# (method, d, ray, r, class, ne counterclockwise, ne clockwise), as the
# readings gave them when each took its sense from the derivative of N/D
RAY_CROSSINGS = (
    ("cross-ratio", 2, 0, 0.5, "classical_over", 2, 1),
    ("cross-ratio", 2, 0, 2.0, "classical_under", 2, 1),
    ("cross-ratio", 2, 1, 0.5, "flat", 1, 2),
    ("cross-ratio", 2, 1, 2.0, "flat", 1, 2),
    ("mobius", 2, 0, 0.5, "classical_over", 2, 1),
    ("mobius", 2, 0, 2.0, "classical_under", 2, 1),
    ("mobius", 2, 1, 0.5, "flat", 1, 2),
    ("mobius", 2, 1, 2.0, "flat", 1, 2),
    ("cross-ratio", 3, 0, 0.5, "classical_over", 2, 1),
    ("cross-ratio", 3, 0, 2.0, "classical_under", 2, 1),
    ("cross-ratio", 3, 1, 0.5, "flat", 2, 1),
    ("cross-ratio", 3, 1, 2.0, "flat", 2, 1),
    ("cross-ratio", 3, 2, 0.5, "flat", 2, 1),
    ("cross-ratio", 3, 2, 2.0, "flat", 2, 1),
    ("cross-ratio", 4, 0, 0.5, "classical_over", 2, 1),
    ("cross-ratio", 4, 0, 2.0, "classical_under", 2, 1),
    ("cross-ratio", 4, 1, 0.5, "flat", 2, 1),
    ("cross-ratio", 4, 1, 2.0, "flat", 2, 1),
    ("cross-ratio", 4, 2, 0.5, "flat", 1, 2),
    ("cross-ratio", 4, 2, 2.0, "flat", 1, 2),
    ("cross-ratio", 4, 3, 0.5, "flat", 2, 1),
    ("cross-ratio", 4, 3, 2.0, "flat", 2, 1),
)


@pytest.mark.parametrize("method,d,ray,r,cls,ne_ccw,ne_cw", RAY_CROSSINGS)
def test_every_ray_crossing_keeps_its_class_and_negative_end(
        method, d, ray, r, cls, ne_ccw, ne_cw):
    """One crossing of each ray of the plain, mobius, d=3 and d=4 readings,
    inside and outside the unit circle, in both directions: the one
    transversality rule with its flip of the mobius ratio and of the far
    rays other than d/2 gives each the class and negative end it had."""
    for turn, ne in ((1, ne_ccw), (-1, ne_cw)):
        events = read(ray_crossing(TWO_PI * ray / d, r, turn), method, d)
        assert [(round(e.time, 9), e.cls, e.ne) for e in events] == \
            [(0.5, cls, ne)]


def grazing_pair(angle: float, turn: int) -> GeomBraid:
    """Strand 1 parked at 1/2; strand 2 crosses the real line at 3/4, at
    angle `angle` to it, rightwards for turn = 1."""
    e = turn * cmath.exp(1j * angle)
    return GeomBraid(2, (((0.0, 0.5 + 0j), (1.0, 0.5 + 0j)),
                         ((0.0, 0.75 - 0.1 * e), (1.0, 0.75 + 0.1 * e))))


def grazing_alignment(angle: float, turn: int) -> GeomBraid:
    """Seen from strand 1 at 0, strand 3 crosses the ray through strand 2
    (at 1) at the point 2, at angle `angle` to it, outwards for turn = 1."""
    e = turn * cmath.exp(1j * angle)
    return GeomBraid(3, (((0.0, 0j), (1.0, 0j)), ((0.0, 1 + 0j), (1.0, 1 + 0j)),
                         ((0.0, 2 - 0.25 * e), (1.0, 2 + 0.25 * e))))


@pytest.mark.parametrize("turn,ne,sign", ((1, 1, 1), (-1, 2, -1)))
def test_small_crossing_angle_is_read_and_tangential_one_refused(turn, ne,
                                                                 sign):
    """At 1e-7 radians a pair crossing and a cylinder alignment are read
    with the sense the derivative rules gave them; at 1e-11 both are
    tangential and refused."""
    cut = 2.0
    for pair_read in (psi_events, lambda b: psi_events(b, method="mobius"),
                      lambda b: psi_d_events(b, 4)):
        assert signature(pair_read(grazing_pair(1e-7, turn))) == \
            [(0.5, 1, 2, "classical_over", ne)]
        with pytest.raises(NonGenericInput, match="tangential crossing"):
            pair_read(grazing_pair(1e-11, turn))
    events = cylinder_events(grazing_alignment(1e-7, turn), 1, cut)
    assert [(round(e.time, 9), e.cls, e.slot, e.sign) for e in events] == \
        [(0.5, "crossing", 1, sign)]
    with pytest.raises(NonGenericInput, match="tangential alignment"):
        cylinder_events(grazing_alignment(1e-11, turn), 1, cut)


# -- exact oracle ------------------------------------------------------------


def exact_event_counts(braid: GeomBraid, powers=(2, 3, 4)) -> dict:
    """Event counts of a one-segment two-strand braid from Fraction-exact
    coefficients of its segment model, keyed None for the plain reading and
    d for the d-th. With N = z1 (z2 - 1), D = (z1 - 1) z2 and P = N conj(D),
    the plain reading counts the real roots of Im P in (0, 1]; the d-th
    counts the roots of Im(P^d) there at which Re(P^d) > 0, the times the
    cross ratio N/D lies on a ray at angle 2 pi p / d. A count is None where
    the sign of Re(P^d) cannot be told at a root."""
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")

    def poly(*coeffs):
        return sympy.Poly([Fraction(c) for c in coeffs], u, domain="QQ")

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def count(real, imag, ray_test):
        found = 0
        for (a, b), _ in imag.intervals(inf=0, sup=1):
            if b == 0:
                continue  # a root at t = 0 is no event
            if ray_test:
                # shrink [a, b] until Re(P^d) has no root in it
                while real.intervals(inf=a, sup=b):
                    if b - a < Fraction(1, 10 ** 40):
                        return None
                    a, b = imag.refine_root(a, b, eps=(b - a) / 1000)
                if real.eval(a) < 0:
                    continue
            found += 1
        return found

    p, end = zip(*braid._paths)     # one segment
    q = list(map(sub, end, p))
    z1, z2 = ((poly(q[s].real, p[s].real), poly(q[s].imag, p[s].imag))
              for s in (0, 1))
    one = poly(1)
    num = mul(z1, (z2[0] - one, z2[1]))
    den = mul((z1[0] - one, z1[1]), z2)
    quartic = mul(num, (den[0], -den[1]))
    counts = {None: count(*quartic, ray_test=False)}
    power = quartic
    for d in range(2, max(powers) + 1):
        power = mul(power, quartic)
        if d in powers:
            counts[d] = count(*power, ray_test=True)
    return counts


def random_segment(rng) -> GeomBraid:
    """Two strands, each one straight segment from t=0 to t=1."""
    a, b, c, d = (complex(rng.uniform(-2.5, 3.5), rng.uniform(-2.2, 2.2))
                  for _ in range(4))
    return GeomBraid(2, (((0.0, a), (1.0, b)), ((0.0, c), (1.0, d))))


def oracle_mismatches(count: int, seed: int):
    """Event counts of psi_events and psi_d_events for d = 2, 3, 4 against
    exact_event_counts on count seeded random segments. Returns the
    mismatching (segment, counts, exact counts), the number compared, and
    the number refused (separation, genericity, or an undecided ray)."""
    rng = random.Random(seed)
    mismatches, compared, refused = [], 0, 0
    for _ in range(count):
        try:
            braid = random_segment(rng)
            got = {None: len(psi_events(braid))}
            got.update((d, len(psi_d_events(braid, d))) for d in (2, 3, 4))
        except (NonGenericInput, SeparationViolated):
            refused += 1
            continue
        want = exact_event_counts(braid)
        if None in want.values():
            refused += 1
        elif got != want:
            mismatches.append((braid.strands, got, want))
        else:
            compared += 1
    return mismatches, compared, refused


def test_event_counts_match_exact_oracle():
    mismatches, compared, refused = oracle_mismatches(60, seed=3)
    assert mismatches == []
    assert compared >= 55 and compared + refused == 60


def exact_cylinder_count(braid: GeomBraid, k: int, cut_angle: float):
    """Event count of the cylinder reading of a one-segment braid seen from
    strand k past a fixed cut, from Fraction-exact coefficients. With a and
    b the positions of two other strands relative to strand k, or of one
    other strand and the cut direction, it counts the roots in (0, 1] of
    Im(a conj(b)) at which Re(a conj(b)) > 0. None where that sign cannot
    be told at a root."""
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")

    def poly(*coeffs):
        return sympy.Poly([Fraction(c) for c in coeffs], u, domain="QQ")

    p, end = zip(*braid._paths)     # one segment
    q = list(map(sub, end, p))
    k0 = k - 1
    vectors = {s: (poly(q[s].real, p[s].real) - poly(q[k0].real, p[k0].real),
                   poly(q[s].imag, p[s].imag) - poly(q[k0].imag, p[k0].imag))
               for s in range(braid.n) if s != k0}
    w = cmath.exp(1j * cut_angle)
    cut = (poly(w.real), poly(w.imag))

    def count(a, b):
        real = a[0] * b[0] + a[1] * b[1]
        imag = a[1] * b[0] - a[0] * b[1]
        if real.is_zero or imag.is_zero:
            return None
        found = 0
        for (lo, hi), _ in imag.intervals(inf=0, sup=1):
            if hi == 0:
                continue  # a root at t = 0 is no event
            while real.intervals(inf=lo, sup=hi):
                if hi - lo < Fraction(1, 10 ** 40):
                    return None
                lo, hi = imag.refine_root(lo, hi, eps=(hi - lo) / 1000)
            if real.eval(lo) > 0:
                found += 1
        return found

    others = sorted(vectors)
    counts = [count(vectors[a], vectors[b])
              for ia, a in enumerate(others) for b in others[ia + 1:]]
    counts += [count(vectors[a], cut) for a in others]
    return None if None in counts else sum(counts)


def test_cylinder_event_counts_match_exact_oracle():
    """Event counts of cylinder_events on seeded one-segment 3- and 4-strand
    braids with a fixed cut, seen from every strand, against
    exact_cylinder_count. Coordinates are multiples of 1/1024, so the
    relative positions the reading works on are exact."""
    rng = random.Random(17)

    def point():
        return complex(rng.randint(-2048, 2048), rng.randint(-2048, 2048)) / 1024

    mismatches, compared, refused, events = [], 0, 0, 0
    for trial in range(60):
        n = 3 + trial % 2
        cut = rng.uniform(0.0, 2 * math.pi)
        strands = tuple(((0.0, point()), (1.0, point())) for _ in range(n))
        try:
            braid = GeomBraid(n, strands)
        except SeparationViolated:
            refused += n
            continue
        for k in range(1, n + 1):
            try:
                got = len(cylinder_events(braid, k, cut))
            except NonGenericInput:
                refused += 1
                continue
            want = exact_cylinder_count(braid, k, cut)
            if want is None:
                refused += 1
            elif got != want:
                mismatches.append((strands, k, cut, got, want))
            else:
                compared += 1
                events += got
    assert mismatches == []
    assert compared >= 180 and events >= 200


def test_close_root_pair_is_found():
    """Two crossings 0.114 apart in one eighth of the segment, where a scan
    of 8 sign samples per segment saw no sign change and missed both."""
    b = GeomBraid(2, (
        ((0.0, complex(-0.12504773260826685, 1.2223587551931474)),
         (1.0, complex(-0.18254692693592123, 1.043511688763751))),
        ((0.0, complex(-0.19638714298248994, -1.8381061971230952)),
         (1.0, complex(-0.30654368399005705, 1.1485159087938133)))))
    both = [(0.757597232, 1, 2, "classical_under", 2),
            (0.871964197, 1, 2, "classical_under", 1)]
    assert signature(psi_events(b)) == both
    assert signature(psi_events(b, method="mobius")) == both
    assert signature(psi_d_events(b, 2)) == both
    assert exact_event_counts(b, powers=(2,)) == {None: 2, 2: 2}


# -- realization -------------------------------------------------------------


def test_realize_single_event_frozen_letters():
    ev = (Event(0.5, 1, 3, "classical_over", ne=3),)
    w1 = realize_flat_virtual(ev, 4, "route-and-return")
    assert format_word(w1) == "t2 s1 t2"
    w2 = realize_flat_virtual(ev, 4, "swap-in-place")
    assert format_word(w2) == "t1 s2 t1"
    assert word_image(w1, RHO_TILDE) == word_image(w2, RHO_TILDE)


def test_realize_class_to_letter_mapping():
    over = realize_flat_virtual((Event(0.5, 1, 2, "classical_over", ne=2),), 2)
    assert format_word(over) == "s1"
    under = realize_flat_virtual((Event(0.5, 1, 2, "classical_under", ne=2),), 2)
    assert format_word(under) == "s1^-1"
    flat = realize_flat_virtual((Event(0.5, 1, 2, "flat", ne=2),), 2)
    assert format_word(flat) == "p1"
    # crossing drawn from the other side flips the sign
    over_rev = realize_flat_virtual((Event(0.5, 1, 2, "classical_over", ne=1),),
                                    2)
    assert format_word(over_rev) == "t1 s1^-1 t1"


def test_realize_respects_initial_order():
    ev = (Event(0.5, 1, 2, "flat", ne=2),)
    w = realize_flat_virtual(ev, 3, initial_order=(2, 3, 1))
    # pair sits at positions 3 and 1; strand 2 must route to strand 1
    img_direct = word_image(w, RHO_TILDE)
    manual = parse_word("t2 t1 p1 t1 t2", GroupId("FVB", 3))
    assert img_direct == word_image(manual, RHO_TILDE)


def test_realize_validates_input():
    with pytest.raises(ValueError):
        realize_flat_virtual((Event(0.5, 1, 2, "flat", ne=3),), 3)
    with pytest.raises(ValueError):
        realize_flat_virtual((Event(0.5, 1, 2, "virtual", ne=2),), 3)
    with pytest.raises(ValueError):
        realize_flat_virtual((), 3, scheme="teleport")
    with pytest.raises(ValueError):
        realize_flat_virtual((), 3, initial_order=(1, 1, 2))


def test_schemes_agree_on_random_event_lists():
    rng = random.Random(90)
    classes = ("classical_over", "classical_under", "flat")
    for _ in range(60):
        m = rng.randrange(3, 6)
        events = []
        t = 0.05
        for _ in range(rng.randrange(1, 7)):
            i = rng.randrange(1, m)
            j = rng.randrange(i + 1, m + 1)
            events.append(Event(t, i, j, rng.choice(classes),
                                ne=rng.choice((i, j))))
            t += 0.1
        order = list(range(1, m + 1))
        rng.shuffle(order)
        w1 = realize_flat_virtual(events, m, "route-and-return", order)
        w2 = realize_flat_virtual(events, m, "swap-in-place", order)
        assert word_image(w1, RHO_TILDE) == word_image(w2, RHO_TILDE)


@pytest.mark.parametrize("scheme", ("route-and-return", "swap-in-place"))
def test_realize_refuses_a_word_past_the_letter_cap(monkeypatch, scheme):
    """The spelled word, before free reduction, may have MAX_LETTERS
    letters and not one more, whether the cap is passed by an event's
    block or by the closing reorder; no event after the one that passes it
    is spelled."""
    rng = random.Random(92)
    classes = ("classical_over", "classical_under", "flat")
    m = 6
    events = []
    for k in range(30):
        i = rng.randrange(1, m)
        j = rng.randrange(i + 1, m + 1)
        events.append(Event(0.01 * (k + 1), i, j, rng.choice(classes),
                            ne=rng.choice((i, j))))
    order = list(range(1, m + 1))
    rng.shuffle(order)
    spelled = []
    reduce = geom.free_reduce_letters
    monkeypatch.setattr(geom, "free_reduce_letters",
                        lambda letters: spelled.append(len(letters))
                        or reduce(letters))
    word = realize_flat_virtual(events, m, scheme, order)
    n = spelled[-1]
    monkeypatch.setattr(geom, "MAX_LETTERS", n)
    assert realize_flat_virtual(events, m, scheme, order) == word
    monkeypatch.setattr(geom, "MAX_LETTERS", n - 1)
    with pytest.raises(ValueError, match=f"more than {n - 1} letters$"):
        realize_flat_virtual(events, m, scheme, order)
    monkeypatch.setattr(geom, "MAX_LETTERS", 3)
    bad = Event(1.0, 1, 2, "flat", ne=3)    # refused if it were spelled
    with pytest.raises(ValueError, match="more than 3 letters$"):
        realize_flat_virtual(events + [bad], m, scheme, order)


# -- full pipeline ------------------------------------------------------------


def test_pipeline_invariances():
    w = random_zero_linking_word(6, random.Random(7), factors=1)
    b = artin_dynamics(w, radial_spread=0.25)
    base = word_image(flat_virtual_word(b, 2, 5), RHO_TILDE)
    assert word_image(flat_virtual_word(perturb(b, 19, 1e-6), 2, 5),
                      RHO_TILDE) == base
    assert word_image(flat_virtual_word(resample(b, 2), 2, 5),
                      RHO_TILDE) == base
    assert word_image(flat_virtual_word(b, 2, 5, scheme="swap-in-place"),
                      RHO_TILDE) == base


def test_pipeline_concat_multiplicative():
    b1 = artin_dynamics(random_zero_linking_word(6, random.Random(1),
                                                 factors=1),
                        radial_spread=0.25)
    b2 = artin_dynamics(random_zero_linking_word(6, random.Random(9),
                                                 factors=1),
                        radial_spread=0.25)
    lhs = word_image(flat_virtual_word(concat(b1, b2), 2, 5), RHO_TILDE)
    rhs = mat_mul(word_image(flat_virtual_word(b1, 2, 5), RHO_TILDE),
                  word_image(flat_virtual_word(b2, 2, 5), RHO_TILDE))
    assert lhs == rhs


def test_pipeline_concat_multiplicative_power_reading():
    b1 = artin_dynamics(random_zero_linking_word(6, random.Random(12),
                                                 factors=1),
                        radial_spread=0.25)
    b2 = artin_dynamics(random_zero_linking_word(6, random.Random(25),
                                                 factors=1),
                        radial_spread=0.25)
    lhs = word_image(flat_virtual_word(concat(b1, b2), 1, 4, d=3), RHO_TILDE)
    rhs = mat_mul(word_image(flat_virtual_word(b1, 1, 4, d=3), RHO_TILDE),
                  word_image(flat_virtual_word(b2, 1, 4, d=3), RHO_TILDE))
    assert lhs == rhs


def dense_reference(braid: GeomBraid, k: int, l: int,
                    samples: int = 64) -> GeomBraid:
    """The paths normalized by g = (z - z_k)/(z_l - z_k), sampled at
    `samples` points per segment and joined as a polyline braid on n-2
    strands: an approximation of what q_kl reads exactly, closer the more
    samples are taken."""
    k0, l0 = k - 1, l - 1
    times, grid = braid.times, list(zip(*braid._paths))
    configs = [(t0 + (t1 - t0) * s / samples,
                [a + (b - a) * (s / samples) for a, b in zip(p, e)])
               for t0, t1, p, e in zip(times, times[1:], grid, grid[1:])
               for s in range(samples)]
    configs.append((1.0, braid.end_config()))
    tracks = [[(t, (z[s] - z[k0]) / (z[l0] - z[k0])) for t, z in configs]
              for s in range(braid.n) if s not in (k0, l0)]
    return GeomBraid(braid.n - 2, tuple(tuple(tr) for tr in tracks))


# SHA-256 of the rho-tilde images (mat_to_text) of the plain and the d=3
# reading. Two samples per segment read these same images, though with
# words that differ from the exact ones in three of the four readings.
DENSE_CASES = (
    ("comm(A[1,3]; A[3,5]^-1)", 5, 4,
     {None: "837b85d290f52b9f53ee167a5525a2a076e443f543c357452166e036fb7c7375",
      3: "a2d885abe80dc711ab723c497eea877a1d4de26d6a988964cf456b63bb5c0286"}),
    ("comm(A[5,6]^-1; A[2,5])", 5, 1,
     {None: "eb65f36f9c10af53a1bfb2a621ae7bb89a0ac2520f65bd4df5462960487765c0",
      3: "bbef7c821de3c6f92ad3c030d11f74e0a7f2c7d6a9bc19130602b0a2b2bc16aa"}),
)


@pytest.mark.parametrize("text,k,l,digests", DENSE_CASES)
def test_pair_reading_matches_dense_reference(text, k, l, digests):
    b = artin_dynamics(parse_word(text, GroupId("B", 6)), radial_spread=0.25)
    view, dense = q_kl(b, k, l), dense_reference(b, k, l)
    assert initial_order(view) == initial_order(dense)
    for d, digest in digests.items():
        exact, ref = ((psi_events(x) if d is None else psi_d_events(x, d))
                      for x in (view, dense))
        assert [(e.i, e.j, e.cls, e.ne) for e in exact] == \
            [(e.i, e.j, e.cls, e.ne) for e in ref]
        word = realize_flat_virtual(exact, view.n,
                                    initial_order=initial_order(view))
        image = mat_to_text(word_image(word, RHO_TILDE))
        assert hashlib.sha256(image.encode()).hexdigest() == digest


# -- angle filter against the unfiltered pair loop ----------------------------


def reference_pair_events(braid, method: str, d: int):
    """The pair loop without the angle filter: every pair and segment goes
    through the quartic."""
    lines, _ = _ray_lines(d)
    segments, _ = _pair_model(braid)
    events = []
    for i0 in range(braid.n):
        for j0 in range(i0 + 1, braid.n):
            pair = (i0 + 1, j0 + 1)
            for t0, h, vals, incs in segments:
                num, den = _cross_ratio_models(vals[i0], incs[i0], vals[j0],
                                               incs[j0], vals[-1], incs[-1],
                                               method)
                for u, ray, sense in _ray_roots(*_pair_quartic(num, den),
                                                lines, t0, h, pair, "crossing"):
                    if ray is not None:
                        events.append(_classify(num, den, u, t0 + h * u, *pair,
                                                method, ray, d, sense))
    return _finish(events)


READINGS = (("cross-ratio", 2), ("mobius", 2), ("cross-ratio", 3),
            ("cross-ratio", 4))


def read(braid, method: str, d: int):
    if method == "mobius":
        return psi_events(braid, method)
    return psi_events(braid) if d == 2 else psi_d_events(braid, d)


def pair_outcome(call, *args):
    try:
        return call(*args)
    except NonGenericInput as exc:
        return type(exc), str(exc)


def filter_mismatches(braids) -> tuple[list, list, int]:
    """Every reading of each braid or view, with and without the filter:
    the differing (braid, reading) cases, the events compared and the
    number of refusals compared."""
    bad, events, refused = [], [], 0
    for braid in braids:
        for method, d in READINGS:
            want = pair_outcome(reference_pair_events, braid, method, d)
            if pair_outcome(read, braid, method, d) != want:
                bad.append((braid, method, d))
            elif want and isinstance(want[0], type):
                refused += 1
            else:
                events += want
    return bad, events, refused


def transformed(braid: GeomBraid, scale: complex, shift: complex = 0j):
    return GeomBraid(braid.n, tuple(tuple((t, z * scale + shift) for t, z in bps)
                                    for bps in braid.strands))


def test_filter_reads_bench_shaped_braids_as_the_unfiltered_loop():
    """Bench-shaped braids, perturbed and resampled, through a view at a
    seeded pair; the plain braid at scales 1e-3 to 1e6."""
    rng = random.Random(9101)
    braids = []
    for _ in range(2):
        b = bench_shaped(rng)
        k, l = rng.sample(range(1, 7), 2)
        for copy in (b, perturb(b, rng.randrange(1 << 30), 1e-6),
                     resample(b, 2)):
            braids.append(q_kl(copy, k, l))
        braids += [transformed(b, scale) for scale in (1e-3, 1e6)]
    bad, events, refused = filter_mismatches(braids)
    assert bad == [] and len(events) > 2000


def test_view_readings_read_the_model_q_kl_built(monkeypatch):
    """One view read plain, d=3, d=4, mobius and plain again gives, each
    time, the events of that reading on a fresh q_kl and the same initial
    order; no reading rebuilds the view's frame or angle ranges."""
    def rebuilt(*args):
        raise AssertionError("a reading rebuilt the view's pair model")

    rng = random.Random(9105)
    order = READINGS[0], READINGS[2], READINGS[3], READINGS[1], READINGS[0]
    for _ in range(2):
        b = bench_shaped(rng)
        k, l = rng.sample(range(1, 7), 2)
        for copy in (b, perturb(b, rng.randrange(1 << 30), 1e-6),
                     resample(b, 2)):
            view = q_kl(copy, k, l)
            start = initial_order(view)
            fresh = [pair_outcome(read, q_kl(copy, k, l), *reading)
                     for reading in order]
            with monkeypatch.context() as m:
                m.setattr(geom, "_frame", rebuilt)
                m.setattr(geom, "_angle_ranges", rebuilt)
                for reading, want in zip(order, fresh):
                    assert pair_outcome(read, view, *reading) == want
                    assert initial_order(view) == start
            assert all(events and all(isinstance(e, Event) for e in events)
                       for events in fresh)


def test_filter_keeps_roots_at_and_near_breakpoints():
    """Roots exactly at a breakpoint up to rounding, found by one segment,
    by the other or by both (and then deduplicated), at scales 1e-3 to
    1e6."""
    rng = random.Random(9102)
    views = []
    for _ in range(200):
        scale = 10.0 ** rng.choice((-3, 0, 3, 6))
        try:
            views.append(q_kl(concyclic_at_half(rng, scale), 1, 2))
        except BraidrepError:
            continue
    bad, events, refused = filter_mismatches(views)
    assert bad == []
    assert sum(abs(e.time - 0.5) < 1e-9 for e in events) >= 100


def test_filter_keeps_puncture_grazes():
    """Strand 3 passes a puncture 1 to 3 times GENERICITY_TOL * |z_l - z_k|
    away, sideways inside a segment or head-on to a breakpoint. Strand 4
    crosses the view, or stands where the cross ratio of strands 3 and 4 at
    the closest pass is 1e-12 to 1e-5 radians off a line of a reading: the
    case that needs the filter's conditioning factor. The punctures are
    1e4 to 1e6 apart, so that the strands stay SEPARATION_TOL apart."""
    rng = random.Random(9103)
    views = []
    for trial in range(160):
        scale = 10.0 ** rng.choice((4, 5, 6))
        zk = scale * complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        zl = zk + scale * cmath.exp(1j * rng.uniform(0, TWO_PI))
        hit = rng.choice((zk, zl))
        gap = rng.choice((1 + 1e-6, 2.0, 3.0)) * GENERICITY_TOL * abs(zl - zk)
        e = cmath.exp(1j * rng.uniform(0, TWO_PI))
        if trial % 4 < 2:
            at = hit + 1j * e * gap   # sideways, closest at u_min
            u_min = rng.uniform(0, 1)
            s0, s1 = at - e * scale * u_min, at + e * scale * (1 - u_min)
            strand3 = ((0.0, s0), (0.5, s1), (1.0, s0))
        else:                         # head-on to t = 1/2, out another way
            at = hit + e * gap
            out = e * cmath.exp(1j * rng.uniform(-1, 1))
            strand3 = ((0.0, at + e * scale), (0.5, at),
                       (0.75, at + out * scale), (1.0, at + e * scale))
        if trial % 2:
            mid = (zk + zl) / 2 + 1j * (zl - zk) * rng.uniform(-1, 1)
            strand4 = ((0.0, mid - (zl - zk) * 2), (0.5, mid + (zl - zk) * 2),
                       (1.0, mid - (zl - zk) * 2))
        else:
            angle = math.pi * rng.choice((0, 1, 1 / 3, 2 / 3, 1 / 2)) \
                + 10 ** rng.uniform(-12, -5) * rng.choice((-1, 1))
            y = rng.uniform(0.2, 5.0) * cmath.exp(1j * angle) \
                * (at - zl) / (at - zk)
            z4 = (zl - y * zk) / (1 - y)
            strand4 = ((0.0, z4), (1.0, z4))
        try:
            views.append(q_kl(GeomBraid(4, (((0.0, zk), (1.0, zk)),
                                             ((0.0, zl), (1.0, zl)),
                                             strand3, strand4)), 1, 2))
        except BraidrepError:
            continue
    bad, events, refused = filter_mismatches(views)
    assert bad == []
    assert len(views) >= 120 and len(events) >= 1000 and refused >= 30


def test_filter_drops_far_side_double_root_of_an_odd_reading():
    """Strand 2 runs along the tangent at 1/2 - i/2 of the circle through
    0, 1 and strand 1, where the cross ratio is -1: on the far side of the
    d=3 reading's line 0, which holds no ray, and far from the rays at
    +-2 pi / 3. The exact double root at u = 1/3 of a segment 2^-20 long
    is too close to separate; the d=3 reading drops it, as Re(w P) < 0 all
    over its piece, and reads nothing, while the even readings, whose far
    ray it is on, refuse it. The filter reads the same either way."""
    start, end = 0.5 - 1 / 256 - 0.5j, 0.5 + 2 / 256 - 0.5j
    b = GeomBraid(2, (((0.0, 0.5 + 0.5j), (1.0, 0.5 + 0.5j)),
                      ((0.0, start), (0.5, start), (0.5 + 2 ** -20, end),
                       (0.75, end - 1j), (0.875, start - 1j), (1.0, start))))
    for view in (b, q_kl(GeomBraid(4, (((0.0, 0j), (1.0, 0j)),
                                       ((0.0, 1 + 0j), (1.0, 1 + 0j)),
                                       *b.strands)), 1, 2)):
        assert psi_d_events(view, 3) == ()
        for method, d in READINGS:
            if d != 3:
                with pytest.raises(NonGenericInput,
                                   match="closer than the genericity"):
                    read(view, method, d)
        assert filter_mismatches([view]) == ([], [], 3)


def test_line_choice_reads_what_every_line_reads(monkeypatch):
    """A pair reading hands _ray_roots only the lines of the rays each
    segment's bound reaches; handed every line of the reading instead, it
    gives the same events, or the same refusal, on seeded zero-linking
    braids of 4 to 7 strands, plain and as a view, at odd and even d."""
    ray_roots = _ray_roots
    rng = random.Random(4040)
    braids = []
    for n in (4, 5, 6, 7):
        for _ in range(3):
            b = artin_dynamics(random_zero_linking_word(n, rng, factors=1),
                               radial_spread=0.25)
            braids.append(b if len(braids) % 2 else q_kl(b, 1, n))
    events = 0
    for d in (3, 4, 5, 7, 16, 257):
        lines, _ = _ray_lines(d)
        for braid in braids:
            chosen = pair_outcome(psi_d_events, braid, d)
            with monkeypatch.context() as m:
                m.setattr(geom, "_ray_roots",
                          lambda coeffs, bern, _, *rest:
                          ray_roots(coeffs, bern, lines, *rest))
                assert pair_outcome(psi_d_events, braid, d) == chosen
            events += len(chosen)
    assert events > 50000


@pytest.mark.parametrize("d,events", ((4097, 26164), (4096, 26160)))
def test_large_power_readings_test_the_lines_their_bounds_reach(monkeypatch,
                                                                d, events):
    """On the B4 commutator's view at (1,3), most segments' bounds are wider
    than the rays' spacing at these d, so each tests the run of lines its
    bound reaches: at most twice as many line tests as roots, and no root
    of the odd reading on a far side, where it holds no ray. Testing every
    line takes 1,048,832 tests for 52,330 roots at d = 4097, 26,166 of them
    on a far side, and 524,288 for 26,160 at d = 4096."""
    ray_roots, tests, roots = _ray_roots, [], []

    def spy(coeffs, bern, lines, *rest):
        found = ray_roots(coeffs, bern, lines, *rest)
        tests.append(len(lines))
        roots.extend(ray for _, ray, _ in found)
        return found

    view = q_kl(artin_dynamics(parse_word("comm(A[1,3]; A[2,4])",
                                          GroupId("B", 4))), 1, 3)
    monkeypatch.setattr(geom, "_ray_roots", spy)
    psi_d_events(view, d)
    assert (len(roots), roots.count(None)) == (events, 0)
    assert sum(tests) <= 2 * len(roots)


def test_filter_leaves_a_vector_through_a_puncture_unbounded():
    """A plain braid whose strand 2 stands exactly on the puncture 0 or 1 at
    a breakpoint: its angle there is undefined, and the reading must still
    refuse as the unfiltered loop does."""
    braids = []
    for p in (0j, 1 + 0j):
        for out in (0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.2j):
            braids.append(GeomBraid(2, (
                ((0.0, 0.5 + 2j), (1.0, 0.5 + 2j)),
                ((0.0, p - 0.5 - 0.5j), (0.5, p), (1.0, p + out)))))
    bad, events, refused = filter_mismatches(braids)
    assert bad == [] and refused >= 6


# -- angle filter against the unfiltered cylinder loop ------------------------


def reference_cylinder_events(braid: GeomBraid, k: int,
                              cut_angle: float | None):
    """The cylinder loop without the angle filter: every pair of watched
    strands and every strand against the cut goes through _ray_roots on
    every segment."""
    n, k0 = braid.n, k - 1
    others = [s for s in range(n) if s != k0]

    def cut(z, unit):
        # n (z_k - centroid), or the fixed direction
        if cut_angle is None:
            return [n * x[k0] - sum(x) for x in zip(*z)]
        return [cmath.exp(1j * cut_angle) if unit else 0j] * len(z[0])

    _, _, segments = _frame(braid.times, braid._paths, k0, range(n), cut)
    lines, _ = _ray_lines(1)
    items = [(si, sj, (si + 1, sj + 1), "alignment")
             for ia, si in enumerate(others) for sj in others[ia + 1:]] + \
        [(l, n, (l + 1, k), "cut passage") for l in others]
    events = []
    for t0, h, vals, incs in segments:
        for sa, sb, pair, what in items:
            coeffs, bern = _pair_quartic((vals[sa], incs[sa], 0j),
                                         (vals[sb], incs[sb], 0j))
            for u, ray, sense in _ray_roots(coeffs, bern, lines, t0, h, pair,
                                            what):
                t, wv = t0 + h * u, vals[n] + incs[n] * u
                if (sb == n or ray is not None) \
                        and abs(wv) <= n * GENERICITY_TOL:
                    raise NonGenericInput("cut direction degenerate", time=t,
                                          pair=pair)
                if ray is None:
                    continue
                if sense is None:
                    raise NonGenericInput(f"tangential {what}", time=t,
                                          pair=pair)
                if sb == n:
                    events.append(Event(t, sa + 1, k, "cut",
                                        sign=-1 if sense else 1))
                else:
                    events.append(_cylinder_crossing(
                        vals, incs, others, wv, u, t, pair, not sense))
    return _finish(events)


def cylinder_filter_mismatches(braids, ks=None) -> tuple[list, list, int]:
    """Every cylinder reading of each braid, from each strand in ks (all if
    None) past each of CUTS, with and without the filter: the differing
    (braid, k, cut) cases, the events compared and the refusals compared."""
    bad, events, refused = [], [], 0
    for braid in braids:
        for k in ks or range(1, braid.n + 1):
            for cut in CUTS:
                want = pair_outcome(reference_cylinder_events, braid, k, cut)
                if pair_outcome(cylinder_events, braid, k, cut) != want:
                    bad.append((braid, k, cut))
                elif want and isinstance(want[0], type):
                    refused += 1
                else:
                    events += want
    return bad, events, refused


def test_cylinder_filter_reads_bench_shaped_braids_as_the_unfiltered_loop():
    """Bench-shaped braids, perturbed and resampled, and at scales 1e-3 to
    1e6, read from seeded strands past the moving cut and two fixed ones."""
    rng = random.Random(9104)
    braids = []
    for _ in range(2):
        b = bench_shaped(rng)
        braids += [b, perturb(b, rng.randrange(1 << 30), 1e-6), resample(b, 2),
                   transformed(b, 1e-3, 2e-3), transformed(b, 1e6, -3e6j)]
    bad, events, refused = cylinder_filter_mismatches(braids, (1, 3, 6))
    assert bad == [] and len(events) > 2000


def test_cylinder_filter_keeps_roots_at_and_near_breakpoints():
    """Alignments and cut passages exactly at a breakpoint up to rounding,
    or just off it, found by one segment, by the other or by both, at
    scales 1e-3 to 1e6."""
    rng = random.Random(9105)
    braids = []
    for _ in range(240):
        scale = 10.0 ** rng.choice((-3, 0, 3, 6))
        try:
            braids.append(aligned_at_half(rng, scale, rng.choice(CUTS)))
        except BraidrepError:
            continue
    bad, events, refused = cylinder_filter_mismatches(braids, (1,))
    assert bad == []
    assert sum(abs(e.time - 0.5) < 1e-9 for e in events) >= 100


def test_cylinder_filter_drops_far_side_double_root():
    """Seen from strand 1, strands 2 and 3 point opposite ways at t = 1/3,
    where Im((z_2 - z_1) conj(z_3 - z_1)) = (3t - 1)^2 has an exact double
    root: on the far side of the line of ray 0, which holds no ray, so past
    a fixed cut nothing is read. The moving cut points along both strands
    there, so strand 2's passage of it is a double root on ray 0 itself,
    and is refused. The filter reads the same either way."""
    for z1 in (0j, 0.5 + 0.25j):
        b = GeomBraid(3, (((0.0, z1), (1.0, z1)),
                          ((0.0, z1 - 3 - 2j), (1.0, z1 - 2j)),
                          ((0.0, z1 + 2 + 1j), (1.0, z1 + 2 + 4j))))
        with pytest.raises(NonGenericInput, match=r"closer than the "
                           r"genericity margin at t=0\.3333.* pair \(2, 1\)"):
            cylinder_events(b, 1)
        for cut in CUTS[1:]:
            assert cylinder_events(b, 1, cut) == ()
        assert cylinder_filter_mismatches([b], (1,)) == ([], [], 1)


# -- metamorphic: similarity transforms --------------------------------------


# bench-shaped braids with the pair they are read at
SIMILARITY_CASES = (("comm(A[1,3]; A[3,5]^-1)", 5, 4),
                    ("comm(A[5,6]^-1; A[2,5])", 5, 1),
                    ("comm(A[2,4]^-1; A[1,3])", 2, 6),
                    ("comm(A[3,4]; A[1,4]^-1)", 6, 3))


def pair_words_and_links(braid: GeomBraid, k: int, l: int):
    words = tuple(format_word(flat_virtual_word(braid, k, l, d))
                  for d in (None, 3))
    links = tuple(linking_number(braid, i, j) for i in range(1, braid.n + 1)
                  for j in range(i + 1, braid.n + 1))
    return words, links


@functools.lru_cache(maxsize=None)
def untransformed(text: str, k: int, l: int):
    b = artin_dynamics(parse_word(text, GroupId("B", 6)), radial_spread=0.25)
    return b, pair_words_and_links(b, k, l)


@settings(max_examples=12)
@given(case=st.sampled_from(SIMILARITY_CASES),
       angle=st.floats(0.0, TWO_PI),
       log_scale=st.floats(-3.0, 4.0),
       shift=st.complex_numbers(max_magnitude=10.0))
def test_pair_words_survive_rotation_translation_and_scaling(case, angle,
                                                             log_scale, shift):
    """z -> s e^(i angle) z + s shift, s = 10^log_scale from 1e-3 to 1e4,
    leaves the plain and the d=3 pair words and every linking number as
    they were."""
    braid, want = untransformed(*case)
    scale = 10.0 ** log_scale
    moved = transformed(braid, scale * cmath.exp(1j * angle), scale * shift)
    assert pair_words_and_links(moved, *case[1:]) == want


FIXED_CUT_ANGLE = 0.4


def cylinder_words(braid: GeomBraid, k: int, turn: float = 0.0):
    """Words read from strand k past the moving cut and past the fixed cut
    at FIXED_CUT_ANGLE + turn: the cylinder word and the d = 1..3 power
    readings."""
    return tuple(format_word(cylinder_reading(braid, k, d, cut)[1])
                 for cut in (None, FIXED_CUT_ANGLE + turn)
                 for d in (None, 1, 2, 3))


@functools.lru_cache(maxsize=None)
def untransformed_cylinder(text: str, k: int):
    b = artin_dynamics(parse_word(text, GroupId("B", 6)), radial_spread=0.25)
    return b, cylinder_words(b, k)


@settings(max_examples=12)
@given(case=st.sampled_from(SIMILARITY_CASES),
       angle=st.floats(0.0, TWO_PI),
       log_scale=st.floats(-3.0, 4.0),
       shift=st.complex_numbers(max_magnitude=10.0))
def test_cylinder_words_survive_rotation_translation_and_scaling(
        case, angle, log_scale, shift):
    """z -> s e^(i angle) z + s shift, s = 10^log_scale from 1e-3 to 1e4,
    leaves the cylinder and power reading words as they were, past the
    moving cut and past a fixed cut turned with the braid."""
    braid, want = untransformed_cylinder(*case[:2])
    scale = 10.0 ** log_scale
    moved = transformed(braid, scale * cmath.exp(1j * angle), scale * shift)
    assert cylinder_words(moved, case[1], angle) == want


def time_reversed(braid: GeomBraid) -> GeomBraid:
    """The braid run backwards, t -> 1 - t."""
    return GeomBraid(braid.n, tuple(tuple((1.0 - t, z) for t, z in reversed(bps))
                                    for bps in braid.strands))


@pytest.mark.parametrize("text,k", [case[:2] for case in SIMILARITY_CASES])
def test_cylinder_reading_of_the_reversed_braid_is_the_inverse(text, k):
    braid, _ = untransformed_cylinder(text, k)
    back = time_reversed(braid)
    for cut in (None, FIXED_CUT_ANGLE):
        for d in (None, 2):
            image = word_image(cylinder_reading(braid, k, d, cut)[1], RHO)
            inverse = word_image(cylinder_reading(back, k, d, cut)[1], RHO)
            assert (inverse * image).is_identity and not image.is_identity


def test_power_reading_is_f_d_of_the_cylinder_word():
    rng = random.Random(9107)
    for _ in range(3):
        b = bench_shaped(rng)
        for k in range(1, b.n + 1):
            events, word = cylinder_reading(b, k)
            for d in (1, 2, 3):
                assert cylinder_reading(b, k, d) == (events, f_d(word, d))


COMM_4 = artin_dynamics(parse_word("comm(A[1,3]; A[2,4])", GroupId("B", 4)),
                        segments_per_crossing=2)
COMM_4_WORDS = ("p1 s1^-2 p1 s1^-2 p1 s1^2 p1 s1^2",
                "t1 p1 t1 s1^-2 t1 p1 t1 p1 t1 s1^-2 t1 p1 t1 p1 t1 s1^2 "
                "t1 p1 t1 p1 t1 s1^2 t1 p1")


def test_pair_words_hold_at_every_float_scale():
    """A view is read at a power-of-two scale of its own, so the quartics
    neither overflow nor lose the words from 1 to 1e153; a plain braid,
    whose punctures stay at 0 and 1, has cross ratios of 1 to float
    precision at these scales, and is refused as non-generic, not for
    float range, up to the coordinate bound."""
    for e in sorted(set(range(0, 154, 9)) | {76, 77, 80, 153}):
        braid = transformed(COMM_4, 10.0 ** e)
        words = tuple(format_word(flat_virtual_word(braid, 1, 3, d))
                      for d in (None, 3))
        assert words == COMM_4_WORDS, e
    for e in (77, 100, 153, 300):
        for read in (psi_events, lambda b: psi_d_events(b, 3)):
            with pytest.raises(NonGenericInput, match="persistent crossing"):
                read(transformed(COMM_4, 10.0 ** e))


def test_readings_are_bit_identical_at_every_power_of_two_scale():
    """Bench-shaped braids scaled by 2^k, which is exact, down to 2^-10 and
    up to 2^1021, the last power the coordinate bound accepts: each reading
    works in a frame scaled by a power of two of its own, so every event's
    repr, time to the last bit, is the one at scale 1. A plain GeomBraid
    keeps its punctures at 0 and 1 whatever the scale of its points, so
    its twin is the braid with two strands standing at 0 and 1, read as the
    view of those two: at scale 1 that view reads as the plain braid."""
    rng = random.Random(9107)
    for _ in range(2):
        b = bench_shaped(rng)
        k = rng.randrange(1, 7)
        kl = rng.sample(range(1, 7), 2)
        readings = [(cylinder_reading, k, d, cut)
                    for d in (None, 3) for cut in (None, FIXED_CUT_ANGLE)] + \
            [(pair_reading, *kl, d) for d in (None, 3)]
        plain = dense_reference(b, *kl, samples=2)
        standing = GeomBraid(plain.n + 2, (((0.0, 0j), (1.0, 0j)),
                                           ((0.0, 1 + 0j), (1.0, 1 + 0j)))
                             + plain.strands)
        assert repr(psi_events(q_kl(standing, 1, 2))) \
            == repr(psi_events(plain))
        want = [pair_outcome(call, b, *args) for call, *args in readings] + \
            [pair_outcome(psi_events, plain)]
        assert not any(isinstance(x[0], type) for x in want)
        # the standing braid's points reach past 2, so its scales stop
        # where its largest coordinate meets the bound
        top = max(max(abs(z.real), abs(z.imag))
                  for bps in standing.strands for _, z in bps)
        for e in (-10, 300, 1000, 1021):
            twin = transformed(b, math.ldexp(1.0, e))
            view = q_kl(transformed(standing, math.ldexp(
                1.0, min(e, 1022 - math.frexp(top)[1]))), 1, 2)
            got = [pair_outcome(call, twin, *args)
                   for call, *args in readings] + \
                [pair_outcome(psi_events, view)]
            assert repr(got) == repr(want), e


def exact_exponents(braid: GeomBraid) -> tuple[int, int]:
    """The least and the greatest e at which scaling braid by 2^e is exact:
    its smallest nonzero coordinate stays a normal float, and its largest
    stays below the coordinate bound of GeomBraid."""
    coords = [abs(x) for bps in braid.strands for _, z in bps
              for x in (z.real, z.imag) if x]
    return (-1021 - math.frexp(min(coords))[1],
            1021 - math.frexp(max(coords))[1])


@settings(max_examples=16)
@given(seed=st.integers(0, 2 ** 32), data=st.data())
def test_readings_are_bit_identical_at_every_exact_power_of_two_scale(seed,
                                                                      data):
    """A bench-shaped braid scaled by 2^e, for any e at which that is exact:
    its cylinder readings and the pair readings of its views are those at
    scale 1 to the last bit, as each reading works in a frame scaled by a
    power of two of its own. SEPARATION_TOL alone is absolute, so below
    about 2^-14 the separation check refuses the scaled braid; it is built
    without that check, which no reading depends on."""
    rng = random.Random(seed)
    b = bench_shaped(rng)
    k, kl = rng.randrange(1, 7), rng.sample(range(1, 7), 2)
    readings = [(cylinder_reading, k, None, None),
                (cylinder_reading, k, 3, FIXED_CUT_ANGLE),
                (pair_reading, *kl, None), (pair_reading, *kl, 3)]
    e = data.draw(st.integers(*exact_exponents(b)), label="e")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(GeomBraid, "_check_separation", lambda self: None)
        twin = transformed(b, math.ldexp(1.0, e))
    for call, *args in readings:
        assert repr(pair_outcome(call, twin, *args)) == \
            repr(pair_outcome(call, b, *args)), (call.__name__, args)


def loop_braid(s: float) -> GeomBraid:
    """Four strands at s (1, i, -1, -i); strand 1 runs once round a loop of
    radius 0.1 s and back to its start, the others stand still."""
    start = s + 0j
    loop = [(m / 8, start + 0.1 * s * (cmath.exp(1j * TWO_PI * m / 8) - 1))
            for m in range(8)] + [(1.0, start)]
    return GeomBraid(4, (tuple(loop),) + tuple(
        ((0.0, s * z), (1.0, s * z)) for z in (1j, -1, -1j)))


def test_cylinder_reads_the_loop_braid_at_every_scale():
    """The loop of strand 1 passes no alignment and no cut seen from strand
    2, at 1e-3 as at 1e160 and 1e307, where absolute units overflowed."""
    for s in (1e-3, 1.0, 1e100, 1e160, 1e300, 1e307):
        events, word = cylinder_reading(loop_braid(s), 2)
        assert events == () and word.letters == (), s


def bisected(coeffs, lo, hi, b, positive_at_lo, h):
    """Root refinement as it was before the Illinois steps: bisection to
    BISECTION_TOL in t, one Horner evaluation per halving."""
    while (hi - lo) * h > BISECTION_TOL:
        mid = (lo + hi) / 2
        fm = geom._horner(coeffs, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == positive_at_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("r", (0.01, 0.1, 1 / 3, 0.501, 0.9))
@pytest.mark.parametrize("p", (3, 5))
def test_illinois_refinement_is_bounded_at_a_multiple_root(monkeypatch, r, p):
    """At a root of odd multiplicity regula falsi alone converges slowly,
    here up to twice the halvings bisection needs on [0, 1] (40); the
    halvings keep the refinement within those plus 2."""
    coeffs = [math.comb(p, i) * (-r) ** (p - i) for i in range(p + 1)]
    bern = [sum(math.comb(k, i) / math.comb(p, i) * coeffs[i]
                for i in range(k + 1)) for k in range(p + 1)]
    calls = []
    horner = geom._horner
    monkeypatch.setattr(geom, "_horner",
                        lambda coeffs, u: calls.append(u) or horner(coeffs, u))
    geom._refine(coeffs, 0.0, 1.0, bern, bern[0] > 0.0, 1.0)
    assert len(calls) <= math.ceil(-math.log2(BISECTION_TOL)) + 2


def test_illinois_refinement_reads_as_bisection(monkeypatch):
    """Bench-shaped braids, plain and perturbed, read plain, at d=3 and on
    the cylinder, once with the Illinois refinement and once with
    bisection: every event but its time is equal, times move by at most
    BISECTION_TOL, and no root costs more Horner calls than bisection's
    plus 2. Every root makes at least one counted call, so the counts are
    of the evaluations the refinement makes, through the module's
    _horner."""
    calls, costs = [0], []
    horner, refine = geom._horner, geom._refine

    def counted(coeffs, u):
        calls[0] += 1
        return horner(coeffs, u)

    def refine_and_bisect(*args):
        calls[0] = 0
        root = refine(*args)
        illinois, calls[0] = calls[0], 0
        bisected(*args)
        costs.append((illinois, calls[0]))
        return root

    rng = random.Random(9106)
    readings = []
    for _ in range(8):
        b = bench_shaped(rng)
        for copy in (b, perturb(b, rng.randrange(1 << 30), 1e-6)):
            view = q_kl(copy, *rng.sample(range(1, 7), 2))
            readings += [(psi_events, view), (psi_d_events, view, 3),
                         (cylinder_events, copy, rng.randrange(1, 7))]
    monkeypatch.setattr(geom, "_horner", counted)
    monkeypatch.setattr(geom, "_refine", refine_and_bisect)
    new = [pair_outcome(call, *args) for call, *args in readings]
    monkeypatch.setattr(geom, "_refine", bisected)
    # a braid keeps its cylinder events, so the bisected pass reads a fresh
    # copy of each
    old = [pair_outcome(call, GeomBraid(braid.n, braid.strands)
                        if call is cylinder_events else braid, *args)
           for call, braid, *args in readings]
    refusals = [(x, y) for x, y in zip(new, old) if isinstance(y[0], type)]
    assert all(x == y for x, y in refusals)
    pairs = [(a, b) for x, y in zip(new, old) if not isinstance(y[0], type)
             for a, b in zip(x, y)]
    assert [len(x) for x in new] == [len(y) for y in old]
    assert len(pairs) > 2000 and len(costs) > 3000
    assert all(replace(a, time=0.0) == replace(b, time=0.0) for a, b in pairs)
    assert max(abs(a.time - b.time) for a, b in pairs) <= BISECTION_TOL
    assert all(illinois >= 1 for illinois, _ in costs)
    assert all(illinois <= bisection + 2 for illinois, bisection in costs)
    assert 4 * sum(c[0] for c in costs) < sum(c[1] for c in costs)


def loop_horner(coeffs, u):
    """Horner's rule as a loop: the reference of the unrolled lengths."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u + c
    return acc


def test_horner_reads_as_the_loop():
    """Lengths 1 to 6, as lists and tuples, of float, complex and mixed
    coefficients over some 60 decades, at u = 0, 1 and seeded u in
    between: bit for bit the loop's value."""
    rng = random.Random(9107)

    def coefficient(kind):
        scale = 10.0 ** rng.uniform(-30, 30)
        if kind == "float" or kind == "mixed" and rng.random() < 0.5:
            return rng.uniform(-1, 1) * scale
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale

    for length in range(1, 7):
        for kind in ("float", "complex", "mixed"):
            for _ in range(100):
                coeffs = [coefficient(kind) for _ in range(length)]
                if rng.random() < 0.5:
                    coeffs = tuple(coeffs)
                for u in (0.0, 1.0, rng.random(), rng.random() * 1e-9):
                    assert repr(geom._horner(coeffs, u)) == \
                        repr(loop_horner(coeffs, u)), (coeffs, u)


def reference_isolate(coeffs, bern, t0: float, h: float, pair, far_side=None):
    """_isolate without the one-change shortcut: every segment through the
    halving loop."""
    roots = [0.0] if t0 > 0.0 and bern[0] == 0.0 else []
    if bern[-1] == 0.0:
        roots.append(1.0)
    todo = [(0.0, 1.0, bern, far_side)]
    while todo:
        lo, hi, b, far_b = todo.pop()
        signs = [x > 0.0 for x in b if x != 0.0]
        changes = sum(s != r for s, r in zip(signs, signs[1:]))
        if changes == 1:
            roots.append(geom._refine(coeffs, lo, hi, b, signs[0], h))
        elif changes > 1:
            if (hi - lo) * h <= GENERICITY_TOL:
                if far_b is not None and all(x < 0.0 for x in far_b):
                    continue
                raise NonGenericInput("real roots closer than the genericity "
                                      "margin", time=t0 + h * lo, pair=pair)
            mid = (lo + hi) / 2
            left, right = geom._halve(b)
            far_left, far_right = (None, None) if far_b is None \
                else geom._halve(far_b)
            if right[0] == 0.0:
                roots.append(mid)
            todo += [(lo, mid, left, far_left), (mid, hi, right, far_right)]
    return sorted(roots)


def isolate_outcome(isolate, *args):
    try:
        return repr(isolate(*args))
    except NonGenericInput as exc:
        return type(exc), str(exc)


def quartic_from_bernstein(bern):
    """Monomial coefficients of the quartic with Bernstein coefficients
    bern on [0, 1]."""
    return [math.comb(4, i) * sum((-1) ** (i - k) * math.comb(i, k) * bern[k]
                                  for k in range(i + 1)) for i in range(5)]


def one_change(rng):
    split, sign = rng.randrange(1, 5), rng.choice((1, -1))
    return [sign * (1 if k < split else -1) * rng.randrange(1, 1000)
            for k in range(5)]


def zero_end(rng):
    b = [rng.choice((1, -1)) * rng.randrange(1, 1000) for _ in range(5)]
    for end in rng.choice(((0,), (4,), (0, 4))):
        b[end] = 0
    return b


def two_changes(rng):
    first, second = sorted(rng.sample(range(1, 5), 2))
    sign = rng.choice((1, -1))
    return [sign * (-1 if first <= k < second else 1) * rng.randrange(1, 1000)
            for k in range(5)]


def one_sign(rng):
    sign = rng.choice((1, -1))
    return [sign * rng.randrange(1, 1000) for _ in range(5)]


def double_root(rng):
    """((u - 1/3)^2 - e^2) (p u^2 + q u + r) for e 0 or 1e-12: a double root
    at 1/3, or two roots 2e-12 apart, so some pieces keep two changes down
    to the margin; the Bernstein coefficients are rounded to floats."""
    p, q, r = (rng.choice((1, -1)) * rng.randrange(1, 50) for _ in range(3))
    e = Fraction(rng.choice((0, 1, -1)), 10 ** 12)
    mono = [Fraction(0)] * 5
    for i, x in enumerate((Fraction(1, 9) - e * e, Fraction(-2, 3), 1)):
        for j, y in enumerate((r, q, p)):
            mono[i + j] += x * y
    return [sum(Fraction(math.comb(k, i), math.comb(4, i)) * mono[i]
                for i in range(k + 1)) for k in range(5)]


@pytest.mark.parametrize("draw", (one_change, zero_end, two_changes, one_sign,
                                  double_root))
def test_isolate_reads_as_the_halving_loop(draw):
    """Seeded Bernstein vectors of one pattern each, at several scales,
    segment starts, widths and far sides: the same roots, or the same
    refusal, with and without the one-change shortcut."""
    rng = random.Random(9108)
    outcomes = []
    for _ in range(300):
        e = rng.randrange(-60, 60)
        exact = draw(rng)
        bern = [math.ldexp(float(b), e) for b in exact]
        coeffs = [math.ldexp(float(a), e)
                  for a in quartic_from_bernstein(exact)]
        far = rng.choice((None, [rng.uniform(-2, 1) for _ in range(5)]))
        for t0, h in ((0.0, 1.0), (0.25, 0.5), (0.5, 1e-8)):
            args = (coeffs, bern, t0, h, (1, 2), far)
            want = isolate_outcome(reference_isolate, *args)
            assert isolate_outcome(geom._isolate, *args) == want, args
            outcomes.append(want)
    roots = [o for o in outcomes if isinstance(o, str)]
    if draw is one_sign:
        assert set(roots) == {"[]"}
    elif draw is one_change:
        assert all(o.count(",") == 0 and o != "[]" for o in roots)
    elif draw is double_root:
        assert len(roots) < len(outcomes)
    assert roots


def test_isolate_reads_bench_shaped_braids_as_the_halving_loop(monkeypatch):
    """Every isolation the bench-shaped readings make, plain, at d=3 and on
    the cylinder, gives what the halving loop gives on the same input; most
    go through the shortcut."""
    isolate, calls = geom._isolate, []

    def both(coeffs, bern, t0, h, pair, far_side=None):
        args = (coeffs, bern, t0, h, pair, far_side)
        got = isolate_outcome(isolate, *args)
        assert got == isolate_outcome(reference_isolate, *args), args
        calls.append(0.0 not in bern and sum(
            (x > 0.0) != (y > 0.0) for x, y in zip(bern, bern[1:])) == 1)
        return isolate(*args)

    rng = random.Random(9109)
    monkeypatch.setattr(geom, "_isolate", both)
    for _ in range(4):
        b = bench_shaped(rng)
        for copy in (b, perturb(b, rng.randrange(1 << 30), 1e-6)):
            view = q_kl(copy, *rng.sample(range(1, 7), 2))
            for call, *args in ((psi_events, view), (psi_d_events, view, 3),
                                (cylinder_events, copy, rng.randrange(1, 7))):
                pair_outcome(call, *args)
    assert len(calls) > 1000 and sum(calls) > len(calls) / 2
