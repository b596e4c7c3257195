import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidrep.braidword import (GroupId, Word, format_word, parse_word,
                                random_pure_word, random_zero_linking_word,
                                sigma)
from braidrep.errors import (BraidrepError, NonGenericInput,
                             NonIntegerWinding, NonZeroLinking,
                             PunctureCollision, SeparationViolated)
from braidrep.geom import (GENERICITY_TOL, SEPARATION_TOL,
                           GeomBraid, _comes_within,
                           _winding,
                           artin_dynamics, base_points, braid_from_json,
                           braid_to_json, concat, cylinder_events,
                           cylinder_reading, events_to_json, initial_order,
                           linking_number, pair_reading, perturb,
                           power_map_extract,
                           psi_d_events, psi_events,
                           q_kl, render_svg, resample)
from braidrep.homs import PipelineConfig, pipeline_matrix, \
    strand_removal_letters
from braidrep.rep import RHO, word_image

TWO_PI = 2 * math.pi

B4 = GroupId("B", 4)
B5 = GroupId("B", 5)
B6 = GroupId("B", 6)


def rigid_rotation(direction: int, steps: int = 8, m: int = 4) -> GeomBraid:
    """Watched strand pinned at the origin, m satellites on the unit circle
    turning by one gap; exactly one passes a cut fixed at angle 0."""
    strands = [tuple((i / steps, 0j) for i in range(steps + 1))]
    for j in range(m):
        ang0 = TWO_PI * j / m + 0.05
        bps = []
        for i in range(steps + 1):
            ang = ang0 + direction * (TWO_PI / m) * i / steps
            bps.append((i / steps, cmath.exp(1j * ang)))
        strands.append(tuple(bps))
    return GeomBraid(m + 1, tuple(strands))


FIXED_CUT = 0.0


# -- model validation -------------------------------------------------------


def test_braid_validation():
    with pytest.raises(ValueError):
        GeomBraid(2, (((0.0, 0j), (1.0, 0j)),))          # count mismatch
    with pytest.raises(ValueError):
        GeomBraid(2, (((0.0, 0j), (0.5, 0j)),            # does not reach t=1
                      ((0.0, 1j), (1.0, 1j))))
    with pytest.raises(ValueError):
        GeomBraid(2, (((0.0, 0j), (0.5, 1j), (0.4, 2j), (1.0, 0j)),
                      ((0.0, 5j), (1.0, 5j))))           # times not increasing
    with pytest.raises(SeparationViolated):
        GeomBraid(2, (((0.0, 0j), (1.0, 1 + 0j)),
                      ((0.0, 1 + 0j), (1.0, 0j))))       # paths cross


def test_non_finite_input_is_refused():
    for bad in (complex(math.nan, 0), complex(0, math.inf), -math.inf):
        with pytest.raises(ValueError, match="finite"):
            GeomBraid(2, (((0.0, 0j), (0.5, bad), (1.0, 0j)),
                          ((0.0, 5j), (1.0, 5j))))
    word = parse_word("A[1,2]", GroupId("B", 3))
    with pytest.raises(ValueError, match="finite"):
        artin_dynamics(word, radial_spread=math.nan)
    data = braid_to_json(artin_dynamics(word))
    data["strands"][1][3][2] = math.nan
    with pytest.raises(ValueError, match="finite"):
        braid_from_json(data)
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="cut angle must be finite"):
            cylinder_events(artin_dynamics(word), 1, angle)


def test_overflowing_input_is_refused():
    """A coordinate of magnitude sys.float_info.max / 4 (just under 2^1022)
    or more is refused when the braid is built; one just below is read."""
    braid = artin_dynamics(parse_word("A[1,2]", GroupId("B", 3)))
    data = braid_to_json(braid)
    data["strands"][0][0][1] = 1e160
    braid_from_json(data)
    for x in (sys.float_info.max / 4, math.ldexp(1.0, 1022), -1e308):
        data["strands"][0][0][1] = x
        with pytest.raises(ValueError, match="too large for float arithmetic"):
            braid_from_json(data)
    data["strands"][0][0][1] = math.nextafter(sys.float_info.max / 4, 0.0)
    data["strands"][0][-1][1] = data["strands"][0][0][1]
    assert linking_number(braid_from_json(data), 1, 2) == \
        linking_number(braid, 1, 2) == 1
    data["n"] = math.inf
    with pytest.raises(ValueError, match="malformed braid JSON"):
        braid_from_json(data)
    # each point is in float range, but the difference of strands 1 and 2
    # would not be
    with pytest.raises(ValueError, match="too large for float arithmetic"):
        GeomBraid(3, (((0, -1e308 + 0j), (1, -1e308 + 0j)),
                      ((0, 1e308 - 1j), (0.5, 1e308 + 1j), (1, 1e308 - 1j)),
                      ((0, 5j), (1, 5j))))


def test_huge_coordinates_end_in_a_reading_or_a_refusal():
    """Strands at 1e150 to 1e308 that move by up to a 1e-200 share of that:
    every check and reading returns, or refuses with a ValueError or a
    BraidrepError, never an OverflowError. Only points past the coordinate
    bound are refused as too large, when the braid is built: each reading
    and check scales its own frame, so none of them overflows."""
    rng = random.Random(17)

    def coord():
        return rng.choice((-1, 1)) * 10.0 ** rng.uniform(150, 308)

    readings = (
        lambda b: [linking_number(b, i, j)
                   for i in range(1, 5) for j in range(i + 1, 5)],
        lambda b: q_kl(b, 1, 3),
        lambda b: pair_reading(b, 1, 3),
        lambda b: pair_reading(b, 1, 3, 3),
        lambda b: cylinder_reading(b, 1),
        lambda b: cylinder_reading(b, 2, 2))
    # standing still near the corner (1.5e308, 1.5e308) of float range
    corner = 1.5e308 + 1.5e308j
    braids = [[((0.0, corner + z), (1.0, corner + z))
               for z in (0, 1e300, 1e300j, 1e300 + 1e300j)]]
    for draw in range(150):
        moves = 10.0 ** -rng.uniform(0, 200)
        strands = [((0.0, z), (rng.uniform(0.1, 0.9),
                               z + complex(coord(), coord()) * moves), (1.0, z))
                   for z in (complex(coord(), coord()) for _ in range(4))]
        braids.append(strands)
    too_large = set()
    for strands in braids:
        try:
            braid = GeomBraid(4, tuple(strands))
        except ValueError as exc:
            assert "too large" in str(exc)
            continue
        for index, read in enumerate(readings):
            try:
                read(braid)
            except (ValueError, BraidrepError) as exc:
                if "too large" in str(exc):
                    too_large.add(index)
    assert too_large == set()


# strand 3 passes through 1e80 at t = 1/2, so over one segment a watched
# vector's length changes by about 1e85, past what kappa^4 holds in a float
FAR_EXCURSION = GeomBraid(4, (((0, 0j), (1, 0j)), ((0, 1 + 0j), (1, 1 + 0j)),
                              ((0, 1e-5j), (0.5, 1e80 + 0j), (1, 1e-5j)),
                              ((0, 3 + 3j), (1, 3 + 3j))))


def test_far_excursion_is_refused_as_non_generic():
    view = q_kl(FAR_EXCURSION, 1, 2)
    for read in (psi_events, lambda v: psi_d_events(v, 3)):
        with pytest.raises((NonGenericInput, PunctureCollision)):
            read(view)
    for k in range(1, 5):
        with pytest.raises((NonGenericInput, PunctureCollision)):
            cylinder_events(FAR_EXCURSION, k)


def test_separation_checked_inside_merged_interval():
    # strand 3 adds the grid times 0.3 and 0.8, which strands 1 and 2 lack;
    # their closest approach (t=0.5) lies inside the grid interval [0.3, 0.8]
    def braid(gap):
        return GeomBraid(3, (((0.0, -1 + 0j), (1.0, 1 + 0j)),
                             ((0.0, gap * 1j), (1.0, gap * 1j)),
                             ((0.0, 5j), (0.3, 5 + 5j), (0.8, 5j), (1.0, 5j))))
    assert braid(1e-3).times == (0.0, 0.3, 0.8, 1.0)
    with pytest.raises(SeparationViolated, match="strands 1 and 2"):
        braid(SEPARATION_TOL / 4)


def test_at_interpolates():
    b = GeomBraid(2, (((0.0, 0j), (0.5, 1 + 0j), (1.0, 1 + 1j)),
                      ((0.0, 5 + 0j), (1.0, 5 + 0j))))
    assert b.at(1, 0.25) == 0.5 + 0j
    assert b.at(1, 0.75) == 1 + 0.5j
    assert b.at(2, 0.3) == 5 + 0j


def test_at_refuses_times_outside_the_unit_interval():
    b = GeomBraid(2, (((0.0, 0j), (0.5, 1 + 0j), (1.0, 1 + 1j)),
                      ((0.0, 5 + 0j), (1.0, 5 + 0j))))
    assert (b.at(1, 0.0), b.at(1, 1.0)) == (0j, 1 + 1j)
    for t in (-1e-300, 1.0 + 1e-15, 2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"time .* outside \[0, 1\]"):
            b.at(1, t)
    # a mark at such a time is refused, not drawn at cx="nan"
    with pytest.raises(ValueError, match="outside"):
        render_svg(b, [{"t": math.nan, "kind": "cut", "strand": 1}])


def test_segment_model_matches_point_query():
    b = artin_dynamics(parse_word("A[1,3] A[2,4]^-1", B4))
    for g, (t0, t1) in enumerate(zip(b.times, b.times[1:])):
        for u in (0.0, 0.3, 1.0):
            for s, path in enumerate(b._paths, start=1):
                p, q = path[g], path[g + 1] - path[g]
                assert abs(p + q * u - b.at(s, t0 + (t1 - t0) * u)) < 1e-12


def test_segments_are_the_point_queries_at_every_merged_time():
    # bench-shaped braids, perturbed and resampled; strands with only their
    # two end breakpoints; breakpoints a few 1e-14 from another strand's,
    # two in a row, which a strand must walk past at once, and one just
    # before the end
    braids = []
    for text in ("comm(A[1,3]; A[3,5]^-1)", "comm(A[5,6]^-1; A[2,5])"):
        b = artin_dynamics(parse_word(text, B6), radial_spread=0.25)
        braids += [b, perturb(b, 3, 1e-6), resample(b, 2)]
    braids.append(GeomBraid(3, (
        ((0.0, 0j), (1.0, 1 + 0j)),
        ((0.0, 5j), (0.3, 5 + 5j), (0.6, 6j), (1.0, 5j)),
        ((0.0, -5j), (0.3 + 2.5e-14, -5 - 5j),
         (0.3 + 5e-14, -5 - 4j), (0.6 - 2e-13, -6j),
         (1.0 - 5e-14, -4j),
         (1.0, -5j)))))
    braids.append(GeomBraid(2, (((0.0, 0j), (1.0, 1 + 0j)),
                                ((0.0, 5j), (1.0, 5 + 5j)))))
    for b in braids:
        for g, t in enumerate(b.times):
            assert repr(tuple(path[g] for path in b._paths)) == \
                repr(tuple(b.at(s, t) for s in range(1, b.n + 1)))
        # the grid is every breakpoint time, and holds every breakpoint
        assert b.times == tuple(sorted({t for bps in b.strands
                                        for t, _ in bps}))
        for bps, path in zip(b.strands, b._paths):
            for t, z in bps:
                assert repr(path[b.times.index(t)]) == repr(z)
    assert braids[-2].times == (0.0, 0.3, 0.3 + 2.5e-14, 0.3 + 5e-14,
                                0.6 - 2e-13, 0.6, 1.0 - 5e-14, 1.0)


# strand 3 loops once around strand 1 in 8e-14 of time, through the
# vertices of the unit octagon, 1e-14 apart
LOOP = GeomBraid(4, (
    ((0.0, 0j), (1.0, 0j)),
    ((0.0, 3j), (1.0, 3j)),
    ((0.0, 1 + 0j), (0.5, 1 + 0j),
     *((0.5 + q * 1e-14, cmath.exp(2j * math.pi * q / 8)) for q in range(1, 8)),
     (0.5 + 8e-14, 1 + 0j), (1.0, 1 + 0j)),
    ((0.0, 3 + 3j), (1.0, 3 + 3j))))


def test_a_loop_of_breakpoints_closer_than_1e_13_winds():
    assert len(LOOP.times) == 11
    assert linking_number(LOOP, 1, 3) == linking_number(LOOP, 3, 1) == 1
    with pytest.raises(NonZeroLinking, match=r"pair \(1, 3\)"):
        q_kl(LOOP, 2, 4)


def test_a_jump_between_breakpoints_closer_than_1e_13_is_refused_there():
    # strand 3 jumps from -1 to 1 in 4e-14 of time, through strand 1 at 0
    with pytest.raises(SeparationViolated,
                       match=r"strands 1 and 3 within tolerance near "
                             r"t=0\.500000"):
        GeomBraid(3, (((0.0, 0j), (1.0, 0j)), ((0.0, 3j), (1.0, 3j)),
                      ((0.0, -1 + 0j), (0.5, -1 + 0j), (0.5 + 4e-14, 1 + 0j),
                       (1.0, 1 + 0j))))


def test_strand_arguments_are_checked():
    b = artin_dynamics(parse_word("A[1,3]", B4))
    for strand in (0, 5, -1):
        with pytest.raises(ValueError, match=f"strand {strand} outside 1..4"):
            b.at(strand, 0.5)
    for i, j in ((0, 2), (2, 0), (1, 5)):
        with pytest.raises(ValueError, match="outside 1..4"):
            linking_number(b, i, j)
    with pytest.raises(ValueError, match="no winding with itself"):
        linking_number(b, 1, 1)


def test_base_points_separated_and_deterministic():
    for n in (3, 5, 7):
        pts = base_points(n)
        assert pts == base_points(n)
        for i in range(n):
            for j in range(i + 1, n):
                assert abs(pts[i] - pts[j]) > 0.1
    spread = base_points(5, radial_spread=0.25)
    radii = sorted(abs(z) for z in spread)
    assert radii[-1] - radii[0] > 0.2


# -- synthesis ---------------------------------------------------------------


def test_artin_dynamics_exact_endpoints():
    w = parse_word("A[1,3]", B4)
    b = artin_dynamics(w)
    assert b.pure
    assert b.start_config() == b.end_config()
    assert b.start_config() == tuple(base_points(4))
    nb = parse_word("s2", B4)
    bn = artin_dynamics(nb)
    assert not bn.pure
    # the two movers land exactly on each other's start
    pts = base_points(4)
    assert bn.end_config() == (pts[0], pts[2], pts[1], pts[3])


def test_artin_rejects_other_families():
    with pytest.raises(ValueError):
        artin_dynamics(parse_word("z", GroupId("CPB", 3)))


def test_artin_and_resample_need_at_least_one_step():
    b = artin_dynamics(parse_word("A[1,2]", GroupId("B", 3)))
    for steps in (0, -1):
        with pytest.raises(ValueError, match="segments per crossing"):
            artin_dynamics(parse_word("A[1,2]", GroupId("B", 3)),
                           segments_per_crossing=steps)
        with pytest.raises(ValueError, match="factor"):
            resample(b, steps)


def test_artin_deterministic():
    w = random_pure_word(5, random.Random(40), factors=2)
    assert artin_dynamics(w) == artin_dynamics(w)


def test_perturb_guard_and_determinism():
    b = artin_dynamics(parse_word("A[1,3]", B4))
    with pytest.raises(SeparationViolated):
        perturb(b, 1, SEPARATION_TOL)
    p1 = perturb(b, 7, 1e-6)
    p2 = perturb(b, 7, 1e-6)
    assert p1 == p2
    assert p1 != b
    # endpoints are never moved
    assert p1.start_config() == b.start_config()
    assert p1.end_config() == b.end_config()


@pytest.mark.parametrize("magnitude", (-0.3, -1e-9, math.nan))
def test_perturb_refuses_negative_and_nan_magnitude(magnitude):
    b = artin_dynamics(parse_word("A[1,3]", B4))
    with pytest.raises(ValueError, match="must be non-negative"):
        perturb(b, 1, magnitude)


def test_resample_preserves_paths():
    b = artin_dynamics(parse_word("A[2,4]", B4))
    r = resample(b, 3)
    assert sum(len(s) for s in r.strands) > sum(len(s) for s in b.strands)
    rng = random.Random(3)
    for _ in range(50):
        t = rng.random()
        s = rng.randrange(1, 5)
        assert abs(r.at(s, t) - b.at(s, t)) < 1e-12


def test_concat_requires_matching_junction():
    b1 = artin_dynamics(parse_word("A[1,3]", B4))
    b2 = artin_dynamics(parse_word("A[2,4]^-1", B4))
    both = concat(b1, b2)
    assert both.pure
    assert abs(both.at(1, 0.25) - b1.at(1, 0.5)) < 1e-15
    bad = artin_dynamics(parse_word("s2", B4))
    with pytest.raises(ValueError):
        concat(bad, b1)


# -- winding -----------------------------------------------------------------


def test_linking_numbers_of_band_words():
    rng = random.Random(15)
    n = 5
    for _ in range(10):
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        e = rng.choice((1, -1))
        suffix = "" if e == 1 else "^-1"
        b = artin_dynamics(parse_word(f"A[{i},{j}]{suffix}", B5))
        for a in range(1, n + 1):
            for c in range(a + 1, n + 1):
                want = e if (a, c) == (i, j) else 0
                assert linking_number(b, a, c) == want


# strand 3 ends 1e-12 from where it starts, so its differences with the
# others do not close
NOT_CLOSING = GeomBraid(4, (((0, 0j), (1, 0j)), ((0, 1 + 0j), (1, 1 + 0j)),
                            ((0, 2 + 2j), (0.5, 2 - 2j), (1, 2 + 2j + 1e-12)),
                            ((0, 3 + 3j), (1, 3 + 3j))))


def test_non_integer_winding_raises():
    b = artin_dynamics(parse_word("s2", B4))
    with pytest.raises(NonIntegerWinding):
        linking_number(b, 2, 3)
    for i in (1, 2, 4):
        with pytest.raises(NonIntegerWinding, match="does not return"):
            linking_number(NOT_CLOSING, i, 3)
    assert linking_number(NOT_CLOSING, 1, 4) == 0
    with pytest.raises(NonIntegerWinding, match=r"pair \(1,3\)"):
        q_kl(NOT_CLOSING, 1, 2)


def fraction_winding(polygon) -> int:
    """Signed count of the edges crossing the positive real axis, every
    sign taken in Fraction."""
    count = 0
    for a, b in zip(polygon, polygon[1:]):
        ay, by = Fraction(a.imag), Fraction(b.imag)
        cross = Fraction(a.real) * by - ay * Fraction(b.real)
        if ay <= 0 < by and cross > 0:
            count += 1
        elif by <= 0 < ay and cross < 0:
            count -= 1
    return count


# on the axis, and within an ulp of it in the subnormal and normal range
AXIS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.2250738585072014e-308, 1e-300, -1e-300)


@st.composite
def polygons(draw):
    """Closed polygons with vertices on or next to the real axis, and edges
    from a vertex to a few ulps off a negative multiple of it, which pass
    within rounding of 0, so that the float products tie."""
    coord = st.one_of(st.sampled_from(AXIS), st.floats(-4.0, 4.0))
    pts = [complex(draw(coord), draw(coord))]
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            c = -draw(st.floats(0.25, 4.0))
            x, y = pts[-1].real * c, pts[-1].imag * c
            for _ in range(draw(st.integers(0, 3))):
                x = math.nextafter(x, draw(st.sampled_from((-math.inf,
                                                             math.inf))))
            pts.append(complex(x, y))
        else:
            pts.append(complex(draw(coord), draw(coord)))
    return pts + [pts[0]]


@settings(max_examples=400)
@given(polygon=polygons())
def test_winding_is_the_exact_crossing_count(polygon):
    assert _winding(polygon, 1, 2) == fraction_winding(polygon)


def test_winding_decides_tied_products_exactly():
    # Re a Im b rounds to Im a Re b, though 3 * 0.1 < 0.30000000000000004:
    # the edge a -> b crosses the real axis just left of 0
    # and -a -> -b just right of it, so a thin loop a, b, -a, -b winds once
    # clockwise about 0
    a, b = complex(3.0, -1.0), complex(-0.30000000000000004, 0.1)
    assert a.real * b.imag == a.imag * b.real
    loop = [a, b, -a, -b, a]
    assert _winding(loop, 1, 2) == fraction_winding(loop) == -1
    assert _winding(loop[::-1], 1, 2) == fraction_winding(loop[::-1]) == 1


@settings(max_examples=200)
@given(polar=st.lists(st.tuples(st.floats(0.5, 2.0), st.integers(-31, 31)),
                      min_size=2, max_size=12))
def test_winding_agrees_with_the_turn_sum_off_the_origin(polar):
    polygon = [cmath.rect(r, step / 10) for r, step in polar]
    polygon.append(polygon[0])
    for a, b in zip(polygon, polygon[1:]):
        # every edge stays 0.1 from the origin, so its turn is below pi
        u = min(max(-(a.conjugate() * (b - a)).real / abs(b - a) ** 2, 0.0),
                1.0) if a != b else 0.0
        assume(abs(a + (b - a) * u) > 0.1)
    turns = sum(cmath.phase(b / a) for a, b in zip(polygon, polygon[1:]))
    assert _winding(polygon, 1, 2) == round(turns / TWO_PI)


# -- cylinder extraction -------------------------------------------------------


def test_rigid_rotation_frozen_words():
    cw = rigid_rotation(-1)
    ccw = rigid_rotation(+1)
    assert format_word(cylinder_reading(cw, 1, None, FIXED_CUT)[1]) == "z"
    assert format_word(cylinder_reading(ccw, 1, None, FIXED_CUT)[1]) == "z^-1"
    assert format_word(power_map_extract(cw, 1, 2, FIXED_CUT)) == \
        "z t1 t2 t3 z"
    assert format_word(power_map_extract(ccw, 1, 2, FIXED_CUT)) == \
        "z^-1 t3 t2 t1 z^-1"
    assert format_word(power_map_extract(cw, 1, 3, FIXED_CUT)) == \
        "z t1 t2 t3 z t1 t2 t3 z"
    events = cylinder_events(cw, 1, FIXED_CUT)
    assert len(events) == 1 and events[0].cls == "cut"


def test_single_crossings_match_word_pipeline():
    for n in (4, 5):
        g = GroupId("B", n)
        for i in range(1, n):
            for e in (1, -1):
                w = Word(g, (sigma(i, e),))
                b = artin_dynamics(w)
                for k in range(1, n + 1):
                    lets, _ = strand_removal_letters(w.expanded(), n, k)
                    want = Word(GroupId("CPB", n - 1), tuple(lets))
                    _, got = cylinder_reading(b, k)
                    assert word_image(got, RHO) == word_image(want, RHO), \
                        (n, i, e, k)


def test_power_extraction_matches_pipeline_random():
    rng = random.Random(23)
    for _ in range(8):
        w = random_pure_word(5, rng, factors=2)
        k = rng.randrange(1, 6)
        d = rng.randrange(1, 3)
        b = artin_dynamics(w)
        got = word_image(power_map_extract(b, k, d), RHO)
        want = pipeline_matrix(w, PipelineConfig(5, k, d))
        assert got == want


def test_extraction_invariant_under_perturb_and_resample():
    w = random_pure_word(4, random.Random(31), factors=2)
    b = artin_dynamics(w)
    base = word_image(cylinder_reading(b, 2)[1], RHO)
    assert word_image(cylinder_reading(perturb(b, 5, 1e-6), 2)[1], RHO) == base
    assert word_image(cylinder_reading(resample(b, 2), 2)[1], RHO) == base


def test_reading_depends_on_calibration():
    w = random_pure_word(4, random.Random(2), factors=2)
    b = artin_dynamics(w)
    want = pipeline_matrix(w, PipelineConfig(4, 1, 1))
    assert word_image(cylinder_reading(b, 1)[1], RHO) == want
    # the mirror turns every crossing the other way: the reading follows
    mirror = Word(w.group, tuple(l.inverse() for l in w.letters))
    got = word_image(cylinder_reading(artin_dynamics(mirror), 1)[1], RHO)
    assert got == pipeline_matrix(mirror, PipelineConfig(4, 1, 1)) != want


def test_persistent_alignment_rejected():
    # two satellites frozen on a common ray from the watched strand
    strands = (((0.0, 0j), (1.0, 0j)),
               ((0.0, 1 + 0j), (1.0, 1 + 0j)),
               ((0.0, 2 + 0j), (1.0, 2 + 0j)))
    b = GeomBraid(3, strands)
    with pytest.raises(NonGenericInput):
        cylinder_events(b, 1, FIXED_CUT)


def test_alignment_persistent_on_the_far_side_is_read():
    # the satellites stay on opposite rays from the watched strand: their
    # ratio stays on ray pi, which holds no event
    strands = (((0.0, 0j), (1.0, 0j)),
               ((0.0, 1 + 0j), (1.0, 1 + 0j)),
               ((0.0, -1 + 0j), (1.0, -1 + 0j)))
    assert cylinder_events(GeomBraid(3, strands), 1, 2.0) == ()


TOUCHES = (
    # strand 2 touches the cut (angle 0) of strand 1 at t = 1/2
    (((0.0, 0j), (1.0, 0j)), ((0.0, 1 + 1j), (0.5, 1 + 0j), (1.0, 1 + 1j)),
     ((0.0, -2 + 2j), (1.0, -2 + 2j))),
    # strand 3 touches the ray from strand 1 through strand 2 at t = 1/2
    (((0.0, 0j), (1.0, 0j)), ((0.0, 1 + 1j), (1.0, 1 + 1j)),
     ((0.0, 2 + 3j), (0.5, 2 + 2j), (1.0, 2 + 3j))))


@pytest.mark.parametrize("strands", TOUCHES)
def test_touch_at_a_breakpoint_is_refused(strands):
    # the strand turns back at the touch, so the segments on either side
    # each see a root there, of opposite sense: two events, too close, that
    # used to be merged into one
    with pytest.raises(NonGenericInput, match="events closer"):
        cylinder_events(GeomBraid(3, strands), 1, FIXED_CUT)


def test_segments_agree_on_the_sign_at_their_breakpoint():
    # on a grid of quarters strand 2 comes to 0.75i at t = 1/2 and turns
    # back: seen past the cut at angle pi/2, whose direction is rounded to
    # 6.1e-17 + 1i, it stays on one side all along, 4.6e-17 off at t = 1/2,
    # which both segments must see alike
    strands = (((0.0, 0j), (1.0, 0j)),
               ((0.0, -0.25 + 1.25j), (0.5, 0.75j), (1.0, -0.75 + 0.5j)),
               ((0.0, 3 - 3j), (1.0, 3 - 3j)))
    assert cylinder_events(GeomBraid(3, strands), 1, math.pi / 2) == ()


def test_cut_passage_at_a_degenerate_cut_is_refused():
    # at t = 1/2 the watched strand 1 sits on the centroid, so the moving
    # cut has no direction while strand 2 seems to pass it
    strands = (((0.0, 1.5 - 1.25j), (1.0, -1.25 + 1.25j)),
               ((0.0, -1.25 - 1.5j), (1.0, -0.75 + 0j)),
               ((0.0, 1.5 - 0.5j), (1.0, 1 + 2j)))
    with pytest.raises(NonGenericInput, match="cut direction degenerate"):
        cylinder_events(GeomBraid(3, strands), 1)


def test_degenerate_cut_is_refused_on_either_side():
    # the braid above turned and scaled: strand 2's root at t = 1/2 falls
    # on the far side of the cut's line by rounding, and is refused there,
    # before strand 3's
    c = 1.5832190268924882 - 0.5991299327755134j
    strands = (((0.0, (1.5 - 1.25j) * c), (1.0, (-1.25 + 1.25j) * c)),
               ((0.0, (-1.25 - 1.5j) * c), (1.0, (-0.75 + 0j) * c)),
               ((0.0, (1.5 - 0.5j) * c), (1.0, (1 + 2j) * c)))
    with pytest.raises(NonGenericInput,
                       match=r"cut direction degenerate .* pair \(2, 1\)"):
        cylinder_events(GeomBraid(3, strands), 1)


def test_cut_passage_exactly_at_the_time_boundary_is_refused():
    # on a grid of quarters strand 3 ends on the cut of strand 1: at t = 1,
    # 3 z_1 - (z_1 + z_2 + z_3) = z_3 - z_1 = 0.75 - 0.5i
    strands = (((0.0, 0.25 - 0.75j), (1.0, 1.25 + 0.5j)),
               ((0.0, -1 + 0.5j), (1.0, -0.25 + 1.5j)),
               ((0.0, 0.25 + 0.25j), (1.0, 2 + 0j)))
    with pytest.raises(NonGenericInput, match="event at the time boundary"):
        cylinder_events(GeomBraid(3, strands), 1)


SIDEWAYS = 2.0


@pytest.mark.parametrize("strands,cut,what", (
    # strand 3 crosses the ray from strand 1 through strand 2 at a slope of
    # 2e-12, running along it
    ((((0.0, 0j), (1.0, 0j)), ((0.0, 1 + 0j), (1.0, 1 + 0j)),
      ((0.0, 2 - 1e-12j), (1.0, 3 + 1e-12j))), SIDEWAYS, "alignment"),
    # strand 2 crosses the cut at angle 0 of strand 1 the same way
    ((((0.0, 0j), (1.0, 0j)), ((0.0, 1 - 1e-12j), (1.0, 2 + 1e-12j)),
      ((0.0, -1 + 2j), (1.0, -1 + 2j))), FIXED_CUT, "cut passage")))
def test_tangential_cylinder_event_is_refused(strands, cut, what):
    with pytest.raises(NonGenericInput, match=f"tangential {what} at t=0.5"):
        cylinder_events(GeomBraid(3, strands), 1, cut)


def test_triple_alignment_is_refused():
    # at t = 1/2 strands 2, 3 and 4 are all on the positive real axis, as
    # seen from strand 1
    strands = (((0.0, 0j), (1.0, 0j)), ((0.0, 1 + 0j), (1.0, 1 + 0j)),
               ((0.0, 2 - 1j), (1.0, 2 + 1j)), ((0.0, 3 + 1j), (1.0, 3 - 1j)))
    with pytest.raises(NonGenericInput,
                       match=r"triple alignment at t=0.5 .*pair \(2, 3\)"):
        cylinder_events(GeomBraid(4, strands), 1, SIDEWAYS)


def test_radial_tie_at_alignment_is_refused():
    # strand 3 passes strand 2 5e-6 farther out, 1e4 from strand 1: more
    # than SEPARATION_TOL apart, within GENERICITY_TOL of the same radius
    far = 1e4
    strands = (((0.0, 0j), (1.0, 0j)), ((0.0, far + 0j), (1.0, far + 0j)),
               ((0.0, far + 5e-6 - 1j), (1.0, far + 5e-6 + 1j)))
    with pytest.raises(NonGenericInput,
                       match=r"radial tie at alignment at t=0.5"):
        cylinder_events(GeomBraid(3, strands), 1, SIDEWAYS)


def test_cylinder_events_json_records():
    b = artin_dynamics(parse_word("A[1,3]", B4))
    records = events_to_json(cylinder_events(b, 2))
    assert records == sorted(records, key=lambda r: r["t"])
    for r in records:
        assert r["kind"] in ("crossing", "cut")
        if r["kind"] == "crossing":
            assert 1 <= r["slot"] <= 2 and r["sign"] in (1, -1)


# -- pair normalization -----------------------------------------------------


def test_q_kl_requires_zero_linking():
    b = artin_dynamics(parse_word("A[1,2]", B4))
    with pytest.raises(NonZeroLinking):
        q_kl(b, 3, 4)


def test_q_kl_normalizes_and_renumbers():
    w = random_zero_linking_word(6, random.Random(44), factors=1)
    b = artin_dynamics(w, radial_spread=0.25)
    q = q_kl(b, 2, 5)
    assert q.n == 4
    # surviving strands keep their relative order by original id
    originals = [1, 3, 4, 6]
    den0 = b.at(5, 0.0) - b.at(2, 0.0)
    start = q.start_config()
    for new_id, old in enumerate(originals, start=1):
        expect = (b.at(old, 0.0) - b.at(2, 0.0)) / den0
        assert abs(start[new_id - 1] - expect) < 1e-12


def test_puncture_collision_guard():
    # strand 3 sits within the puncture margin of strand 1 after scaling
    strands = (((0.0, 0j), (1.0, 0j)),
               ((0.0, 1e4 + 0j), (1.0, 1e4 + 0j)),
               ((0.0, 5e-6 + 0j), (1.0, 5e-6 + 0j)),
               ((0.0, 5e3 + 1j), (1.0, 5e3 + 1j)))
    b = GeomBraid(4, strands)
    with pytest.raises(PunctureCollision):
        q_kl(b, 1, 2)


@pytest.mark.parametrize("k,l", ((1, 2), (2, 1)))
def test_puncture_collision_inside_a_segment(k, l):
    # strand 3 runs along the real axis just above strand 1 and passes it at
    # u = 0.25 of each segment: 5e-6 apart, so the braid is separated, but
    # within GENERICITY_TOL * 1e4 of the puncture at strand 1
    strands = (((0.0, 0j), (1.0, 0j)),
               ((0.0, 1e4 + 0j), (1.0, 1e4 + 0j)),
               ((0.0, -1 + 5e-6j), (0.5, 3 + 5e-6j), (1.0, -1 + 5e-6j)),
               ((0.0, 5e3 + 1j), (1.0, 5e3 + 1j)))
    with pytest.raises(PunctureCollision, match="strand 3 .* near t=0.125"):
        q_kl(GeomBraid(4, strands), k, l)


def test_first_separation_violation_is_the_earliest_interval_then_pair():
    # strand 3 comes within tolerance of strand 2 at t = 0.25, then of
    # strand 1 at 0.6 and 0.85: the grid intervals are scanned in time
    # order, then the pairs of each, so the earliest approach is refused
    # although pair (1, 3) comes before pair (2, 3)
    strands = (((0.0, 0j), (1.0, 0j)), ((0.0, 10 + 0j), (1.0, 10 + 0j)),
               ((0.0, 5j), (0.25, 10 + 2e-6j), (0.4, 5j), (0.6, 2e-6j),
                (0.7, 5j), (0.85, -2e-6 + 0j), (1.0, 5j)),
               ((0.0, 100j), (1.0, 100j)))
    with pytest.raises(SeparationViolated) as info:
        GeomBraid(4, strands)
    assert str(info.value) == "strands 2 and 3 within tolerance near t=0.250000"


FAR = 5e3 + 3e3j
PUNCTURES = (((0.0, 0j), (1.0, 0j)), ((0.0, 1e4 + 0j), (1.0, 1e4 + 0j)))
FIRST_COLLISIONS = (
    # strand 4 touches puncture 1 on the first segment, strand 3 puncture 2
    # on the third: segment before strand
    (PUNCTURES + (((0.0, FAR), (0.5, FAR), (0.75, 1e4 + 5e-6j), (1.0, FAR)),
                  ((0.0, FAR.conjugate()), (0.25, 5e-6j),
                   (0.5, FAR.conjugate()), (1.0, FAR.conjugate()))),
     0.25, 0.25, 4),
    # on one segment strand 4 passes puncture 1 at t = 0.3, strand 3
    # passes puncture 2 at t = 0.45: strand before time
    (PUNCTURES + (((0.0, 1e4 + 5e-6 - 8e3j), (0.25, 1e4 + 5e-6 - 8e3j),
                   (0.5, 1e4 + 5e-6 + 2e3j), (1.0, 1e4 + 5e-6 - 8e3j)),
                  ((0.0, -2e3 + 5e-6j), (0.25, -2e3 + 5e-6j),
                   (0.5, 8e3 + 5e-6j), (1.0, -2e3 + 5e-6j))),
     0.45, 0.45, 3),
    # on one segment strand 3 runs from puncture 1 to puncture 2: the
    # puncture at strand k before the one at strand l
    (PUNCTURES + (((0.0, FAR), (0.25, -1 + 5e-6j), (0.5, 1e4 + 1 + 5e-6j),
                   (1.0, FAR)),
                  ((0.0, FAR.conjugate()), (1.0, FAR.conjugate()))),
     0.250025, 0.499975, 3),
)


@pytest.mark.parametrize("strands,t12,t21,strand", FIRST_COLLISIONS)
def test_first_puncture_collision_is_the_first_segment_strand_puncture(
        strands, t12, t21, strand):
    braid = GeomBraid(4, strands)
    for (k, l), t in (((1, 2), t12), ((2, 1), t21)):
        with pytest.raises(PunctureCollision) as info:
            q_kl(braid, k, l)
        assert str(info.value) == \
            f"strand {strand} touches a puncture near t={t:.6f}"
        assert outcome(reference_q_kl, braid, k, l) == \
            (PunctureCollision, str(info.value))


# -- clearance tests against the exhaustive checks ---------------------------


def reference_separation(braid: GeomBraid) -> None:
    """The separation check without its clearance test: every segment, every
    pair through the exact quadratic."""
    z, times = braid._paths, braid.times
    for g, (t0, t1) in enumerate(zip(times, times[1:])):
        for i in range(braid.n):
            for j in range(i + 1, braid.n):
                u = _comes_within(z[i][g] - z[j][g], z[i][g + 1] - z[j][g + 1],
                                  1, 1, SEPARATION_TOL)
                if u is not None:
                    raise SeparationViolated(
                        f"strands {i + 1} and {j + 1} within tolerance "
                        f"near t={t0 + (t1 - t0) * u:.6f}")


def reference_q_kl(braid: GeomBraid, k: int, l: int) -> None:
    """The checks of q_kl without their clearance test: every strand, both
    punctures, every segment through the exact quadratic."""
    n = braid.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if linking_number(braid, i, j) != 0:
                raise NonZeroLinking("winding must vanish", pair=(i, j))
    k0, l0 = k - 1, l - 1
    z, times = braid._paths, braid.times
    for g, (t0, t1) in enumerate(zip(times, times[1:])):
        c0, c1 = z[l0][g] - z[k0][g], z[l0][g + 1] - z[k0][g + 1]
        for s in (s for s in range(n) if s not in (k0, l0)):
            for x in (k0, l0):
                u = _comes_within(z[s][g] - z[x][g], z[s][g + 1] - z[x][g + 1],
                                  c0, c1, GENERICITY_TOL)
                if u is not None:
                    raise PunctureCollision(f"strand {s + 1} touches a puncture "
                                            f"near t={t0 + (t1 - t0) * u:.6f}")


def outcome(call, *args):
    # a braid built unchecked may put two strands on one point, where
    # linking_number divides by zero
    try:
        call(*args)
    except (BraidrepError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return None


def unchecked(n, strands, monkeypatch) -> GeomBraid:
    """A GeomBraid built without its separation check."""
    with monkeypatch.context() as m:
        m.setattr(GeomBraid, "_check_separation", lambda self: None)
        return GeomBraid(n, strands)


def passing_path(rng, scale, point, gap, u_min, e):
    """Ends of a straight unit-time path that passes point at distance gap
    at u_min: it stands still, or moves along the unit vector e, either way,
    at a speed between 1e-12 and 1 times scale."""
    v = scale * 10 ** rng.uniform(-12, 0) * rng.choice((-1, 0, 1))
    at = point + 1j * e * gap
    return at - e * v * u_min, at + e * v * (1 - u_min)


NEAR_FACTORS = (0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0, 3.0)
NEAR_SCALES = (1e-100, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12, 1e100)


def test_clearance_refuses_exactly_as_the_exhaustive_separation_check(
        monkeypatch):
    # two strands move along e and are factor * SEPARATION_TOL apart across
    # it at u_min; a third splits their segment at t = 1/2
    rng = random.Random(7001)
    seen = set()
    for scale in NEAR_SCALES:
        for factor in NEAR_FACTORS:
            for u_min in (0.0, 0.5, 1.0) + tuple(rng.uniform(0, 1)
                                                  for _ in range(5)):
                e = cmath.exp(1j * rng.uniform(0, TWO_PI))
                base = scale * complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                a0, a1 = passing_path(rng, scale, base, 0.0, u_min, e)
                b0, b1 = passing_path(rng, scale, base, factor * SEPARATION_TOL,
                                      u_min, e)
                far = base + 5 * scale * e
                strands = (((0.0, a0), (1.0, a1)), ((0.0, b0), (1.0, b1)),
                           ((0.0, far), (0.5, far + scale), (1.0, far)))
                want = outcome(reference_separation,
                               unchecked(3, strands, monkeypatch))
                assert outcome(GeomBraid, 3, strands) == want
                seen.add(want is None)
    assert seen == {True, False}


def test_clearance_refuses_exactly_as_the_exhaustive_puncture_check(
        monkeypatch):
    # the punctures are scale apart, at the origin or 1e12 off it; strand 3
    # passes the puncture at hit, factor * GENERICITY_TOL * |zl - zk|
    # away at u_min of [0, 1/2], and retraces its path on [1/2, 1]; the
    # other puncture may drift straight away from hit on [1/2, 1], so every
    # winding stays far below 1e-6 turns
    rng = random.Random(7002)
    seen = set()
    for scale in NEAR_SCALES:
        for factor in NEAR_FACTORS:
            for u_min in [0.0, 1.0] * 4 + [rng.uniform(0, 1) for _ in range(24)]:
                zk = rng.choice((0.0, 1e12)) \
                    + scale * complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                zl = zk + scale * cmath.exp(1j * rng.uniform(0, TWO_PI))
                hit, other = rng.choice(((zk, zl), (zl, zk)))
                e = cmath.exp(1j * rng.uniform(0, TWO_PI))
                drift = (other - hit) * 10 ** rng.uniform(-12, 0.7) \
                    * rng.choice((0, 1))
                s0, s1 = passing_path(rng, scale, hit,
                                      factor * GENERICITY_TOL * abs(zl - zk),
                                      u_min, e)
                punctures = [((0.0, z), (0.5, z),
                              (1.0, z + (drift if z is other else 0)))
                             for z in (zk, zl)]
                far = hit + 2 * (hit - other)
                strands = (*punctures, ((0.0, s0), (0.5, s1), (1.0, s0)),
                           ((0.0, far), (1.0, far)))
                braid = unchecked(4, strands, monkeypatch)
                for k, l in ((1, 2), (2, 1)):
                    want = outcome(reference_q_kl, braid, k, l)
                    assert outcome(q_kl, braid, k, l) == want
                    seen.add(want is None)
    assert seen == {True, False}


def test_initial_order_sorts_by_position():
    strands = (((0.0, 3 + 0j), (1.0, 3 + 0j)),
               ((0.0, -1 + 0j), (1.0, -1 + 0j)),
               ((0.0, 1 + 0j), (1.0, 1 + 0j)))
    b = GeomBraid(3, strands)
    assert initial_order(b) == (2, 3, 1)


# -- serialization and drawing ---------------------------------------------


def test_braid_json_round_trip():
    b = artin_dynamics(parse_word("A[1,3] A[2,4]^-1", B4))
    data = braid_to_json(b)
    back = braid_from_json(data)
    assert back == b
    assert data["pure"] is True
    with pytest.raises(ValueError):
        braid_from_json({"n": 2})
    with pytest.raises(ValueError):
        braid_from_json({"n": "x", "strands": []})


def test_pure_is_recomputed_on_load():
    data = braid_to_json(artin_dynamics(parse_word("A[1,3]", B4)))
    del data["pure"]
    assert braid_from_json(data).pure is True
    data = braid_to_json(artin_dynamics(parse_word("s2", B4)))
    assert data["pure"] is False
    data["pure"] = True
    assert braid_from_json(data).pure is False


def test_render_svg_structure():
    b = artin_dynamics(parse_word("A[1,3]", B4))
    svg = render_svg(b, events_to_json(cylinder_events(b, 2)))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 4
    assert "<circle" in svg
