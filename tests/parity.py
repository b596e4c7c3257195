"""Parity battery of the geometry readings and the algebra images.

Writes one record per input and reading: the repr of the events the reading
returns (every time to the last bit), then the word it spells where it spells
one, or the class and message of the refusal; an algebra record is one
matrix, as its text form (rows joined by ';') and its JSON form. Prints, per
family, the number of records and the sha256 of its records, then the same
for all of them. Run it on two versions of the code and compare the outputs:

    PYTHONPATH=src python tests/parity.py --out new.txt
    PYTHONPATH=src python tests/parity.py --compare old.txt new.txt

--compare names, per family, the first record that differs. --pin reads
every few inputs of each family, the subset that tests/test_parity.py pins,
and writes each record's key and a digest of its result:

    PYTHONPATH=src python tests/parity.py --pin tests/parity_slice.txt

The script calls only the public API of braidrep, so one copy of it reads
any version of the package that PYTHONPATH names. The algebra family takes
its inputs from bench/workloads.py.

Families:
  bench        40 bench-shaped braids (random.Random(7)), each plain,
               perturbed by 1e-6 and resampled x2: cylinder_reading from
               every strand, d None/2/3, past the moving cut and cuts 0.0
               and 2.0; pair_reading at (1,2) and (3,5), d None/3/4, the
               mobius psi_events and the view's start_config
  concyclic    200 concyclic_at_half draws (9102) as views at (1,2), read
               plain, mobius, d=3 and d=4
  aligned      240 aligned_at_half draws (9105), cylinder_events from
               strand 1 past each cut
  separation   two strands 0.5 to 2 SEPARATION_TOL apart, at scales 2^-40
               to 2^80: the braid, its linking number and a cylinder reading
  puncture     a strand 0.3 to 30 GENERICITY_TOL |z_l - z_k| from a
               puncture, at scales 2^-40 to 2^80: q_kl both ways, each read
               plain and d=3
  two_strand   1,000 random_two_strand draws (814), read plain, mobius, d=3
  huge         600 draws at 1e150 to 1e308 (random.Random(17)) and a braid
               standing near the corner of float range: linking numbers,
               q_kl, pair and cylinder readings
  algebra      6,793 symbolic matrices: both sides of every relation of the
               bench's REL_CASES under its representation; both sides of
               every B_n relation translated by p_k from every start
               position and through f_d, for n 3..6, k 1..n and d 1..3
               (COC_CASES); BIGELOW5 through p_k, f_d and rho for k 1..5
               and d 1..3; and for the 500 pinned multiplicativity inputs
               (u, v, k, d) on B5, the pipeline images of uv, u and v and
               the mat_mul of the last two
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import random
import sys
from itertools import islice
from pathlib import Path

from braidrep import rep
from braidrep.braidword import (GroupId, Word, format_word, parse_word,
                                relation_suite)
from braidrep.geom import (GENERICITY_TOL, SEPARATION_TOL, TWO_PI, GeomBraid,
                           artin_dynamics, cylinder_events, cylinder_reading,
                           linking_number, pair_reading, perturb, psi_d_events,
                           psi_events, q_kl, resample)
from braidrep.homs import (PipelineConfig, f_d, pipeline_matrix,
                           strand_removal_letters)
from braidrep.laurent import mat_mul, mat_to_json, mat_to_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

CUTS = (None, 0.0, 2.0)
GRAZE_SCALES = tuple(math.ldexp(1.0, e) for e in range(-40, 81, 8))


# -- input generators, shared with the tests ----------------------------------


def bench_shaped(rng) -> GeomBraid:
    """A commutator of two band generators on 6 strands whose spans add to
    4, as the geometry bench draws them."""
    while True:
        span = rng.randrange(1, 4)
        i, j = rng.randrange(1, 7 - span), rng.randrange(1, 3 + span)
        if (i, span) != (j, 4 - span):
            break
    text = f"comm(A[{i},{i + span}]^{rng.choice((1, -1))}; " \
        f"A[{j},{j + 4 - span}]^{rng.choice((1, -1))})"
    return artin_dynamics(parse_word(text, GroupId("B", 6)), radial_spread=0.25)


def random_two_strand(rng) -> GeomBraid:
    strands = []
    for _ in range(2):
        k = rng.randrange(2, 5)
        ts = sorted(rng.random() for _ in range(k - 1))
        times = [0.0] + [t for t in ts if 0.05 < t < 0.95] + [1.0]
        bps = [(t, complex(rng.uniform(-2.5, 3.5), rng.uniform(-2.2, 2.2)))
               for t in times]
        strands.append(tuple(bps))
    return GeomBraid(2, tuple(strands))


def _triangle(rng, scale: float, corner: complex):
    """A closed path round a small triangle with a corner at t = 1/2."""
    a, b = (corner + scale * 0.3 * cmath.exp(1j * rng.uniform(0, TWO_PI))
            for _ in range(2))
    return (0.0, a), (0.5, corner), (0.75, b), (1.0, a)


def concyclic_at_half(rng, scale: float) -> GeomBraid:
    """Punctures 1 and 2 stand still; strands 3 and 4 each run round a small
    triangle with a corner at t = 1/2, where strand 4 is where the cross
    ratio of strands 3 and 4 takes a value on a line of the plain, d=3 or
    d=4 reading. So the ratio crosses or touches that line at the
    breakpoint."""
    def point():
        return scale * complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    zk, zl, z3 = point(), point(), point()
    angle = math.pi * rng.choice((0, 1, 1 / 3, 2 / 3, 4 / 3, 5 / 3, 1 / 2, 3 / 2))
    target = rng.uniform(0.2, 5.0) * cmath.exp(1j * angle)
    # cr = (z3 - zk)(z4 - zl) / ((z3 - zl)(z4 - zk)) = target, solved for z4
    y = target * (z3 - zl) / (z3 - zk)
    z4 = (zl - y * zk) / (1 - y)
    return GeomBraid(4, (((0.0, zk), (1.0, zk)), ((0.0, zl), (1.0, zl)),
                         _triangle(rng, scale, z3), _triangle(rng, scale, z4)))


def aligned_at_half(rng, scale: float, cut: float | None) -> GeomBraid:
    """Strand 1 stands still; strands 2 and 3 each run round a small
    triangle with a corner at t = 1/2, where strand 3 is, as seen from
    strand 1, in the direction of strand 2 or of the cut, exactly up to
    rounding or 1e-12 to 1e-5 radians off; strand 4 stands still. So an
    alignment or a cut passage crosses or touches the breakpoint."""
    def point():
        return scale * complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    zk, z2, z4 = point(), point(), point()
    if rng.random() < 0.5:
        direction = z2 - zk
    elif cut is not None:
        direction = cmath.exp(1j * cut)
    else:
        # z3 - zk on the ray of 4 zk - (zk + z2 + z3 + z4) = w - (z3 - zk)
        direction = 3 * zk - z2 - z4
    off = rng.choice((0.0, 0.0, 10 ** rng.uniform(-12, -5) * rng.choice((-1, 1))))
    length = rng.uniform(0.2, 0.9) * (abs(direction) if cut is None
                                      else scale)
    z3 = zk + length * cmath.exp(1j * off) * direction / abs(direction)
    return GeomBraid(4, (((0.0, zk), (1.0, zk)), _triangle(rng, scale, z2),
                         _triangle(rng, scale, z3), ((0.0, z4), (1.0, z4))))


def _passing_path(rng, scale, point, gap, u_min, e):
    """Ends of a straight unit-time path that passes point at distance gap
    at u_min: it stands still, or moves along the unit vector e, either way,
    at a speed between 1e-12 and 1 times scale."""
    v = scale * 10 ** rng.uniform(-12, 0) * rng.choice((-1, 0, 1))
    at = point + 1j * e * gap
    return at - e * v * u_min, at + e * v * (1 - u_min)


# -- readings -----------------------------------------------------------------


def _cylinder(k, d, cut):
    def read(braid):
        events, word = cylinder_reading(braid, k, d, cut)
        return f"{events!r} {format_word(word)}"
    return f"cylinder k={k} d={d} cut={cut}", read


def _pair(k, l, d):
    def read(braid):
        events, word = pair_reading(braid, k, l, d)
        return f"{events!r} {format_word(word)}"
    return f"pair ({k},{l}) d={d}", read


def _mobius(k, l):
    return f"mobius ({k},{l})", \
        lambda braid: repr(psi_events(q_kl(braid, k, l), "mobius"))


def _start(k, l):
    return f"start ({k},{l})", \
        lambda braid: repr(q_kl(braid, k, l).start_config())


# a view or a plain braid read by each pair reading
VIEW_READINGS = (("plain", lambda v: repr(psi_events(v))),
                 ("mobius", lambda v: repr(psi_events(v, "mobius"))),
                 ("d=3", lambda v: repr(psi_d_events(v, 3))),
                 ("d=4", lambda v: repr(psi_d_events(v, 4))))


def _through(k, l, readings):
    """The readings of the view q_kl(braid, k, l)."""
    return [(f"({k},{l}) {name}",
             lambda braid, read=read: read(q_kl(braid, k, l)))
            for name, read in readings]


BENCH_READINGS = tuple(_cylinder(k, d, cut) for k in range(1, 7)
                       for d in (None, 2, 3) for cut in CUTS) + \
    tuple(r for kl in ((1, 2), (3, 5))
          for r in [_pair(*kl, d) for d in (None, 3, 4)]
          + [_mobius(*kl), _start(*kl)])

HUGE_READINGS = (
    ("links", lambda b: repr([linking_number(b, i, j) for i in range(1, 5)
                              for j in range(i + 1, 5)])),
    ("q_kl (1,3)", lambda b: repr(q_kl(b, 1, 3).start_config())),
    _pair(1, 3, None), _pair(1, 3, 3), _cylinder(1, None, None),
    _cylinder(2, 2, None))


def outcome(read, *args) -> str:
    """What read(*args) returns, or the class and message of what it
    raises, any exception included: an OverflowError is a record too."""
    try:
        return read(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _built(make, *args):
    """What make(*args) builds, or the exception it raises."""
    try:
        return make(*args)
    except Exception as exc:
        return exc


def _records(name, built, readings):
    """The records of one input: the refusal to build it, or each reading
    of what was built."""
    if isinstance(built, Exception):
        yield f"{name} build", f"{type(built).__name__}: {built}"
        return
    for reading, read in readings:
        yield f"{name} {reading}", outcome(read, built)


# -- families -----------------------------------------------------------------
#
# Each family yields, per input, an iterable of (name, built, readings);
# every geometry input is built, or refused, as it is drawn, so a subset of
# the inputs reads what the whole family reads of them.


def bench():
    rng = random.Random(7)
    for index in range(40):
        b = bench_shaped(rng)
        seed = rng.randrange(1 << 30)
        yield [(f"{index}", b, BENCH_READINGS),
               (f"{index}p", _built(perturb, b, seed, 1e-6), BENCH_READINGS),
               (f"{index}r", _built(resample, b, 2), BENCH_READINGS)]


def concyclic():
    rng = random.Random(9102)
    for index in range(200):
        scale = 10.0 ** rng.choice((-3, 0, 3, 6))
        yield [(f"{index}", _built(concyclic_at_half, rng, scale),
                _through(1, 2, VIEW_READINGS))]


def aligned():
    rng = random.Random(9105)
    readings = [(f"cut={cut}",
                 lambda b, cut=cut: repr(cylinder_events(b, 1, cut)))
                for cut in CUTS]
    for index in range(240):
        scale = 10.0 ** rng.choice((-3, 0, 3, 6))
        yield [(f"{index}", _built(aligned_at_half, rng, scale,
                                   rng.choice(CUTS)), readings)]


SEPARATION_READINGS = (
    ("link", lambda b: repr(linking_number(b, 1, 2))),
    _cylinder(1, None, None), _cylinder(3, None, 0.0))


def separation():
    # strands 1 and 2 move along e and are factor * SEPARATION_TOL apart
    # across it at u_min; strand 3 splits their segment at t = 1/2
    rng = random.Random(7001)
    for scale in GRAZE_SCALES:
        for factor in (0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0):
            for u_min in (0.0, 0.5, 1.0, rng.uniform(0, 1)):
                e = cmath.exp(1j * rng.uniform(0, TWO_PI))
                base = scale * complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                a0, a1 = _passing_path(rng, scale, base, 0.0, u_min, e)
                b0, b1 = _passing_path(rng, scale, base,
                                       factor * SEPARATION_TOL, u_min, e)
                far = base + 5 * scale * e
                strands = (((0.0, a0), (1.0, a1)), ((0.0, b0), (1.0, b1)),
                           ((0.0, far), (0.5, far + scale), (1.0, far)))
                yield [(f"2^{math.frexp(scale)[1] - 1} x{factor} u={u_min!r}",
                        _built(GeomBraid, 3, strands), SEPARATION_READINGS)]


PUNCTURE_READINGS = _through(1, 2, VIEW_READINGS[0::2]) + \
    _through(2, 1, VIEW_READINGS[0::2])


def puncture():
    # the punctures are scale apart; strand 3 passes the one at hit,
    # factor * GENERICITY_TOL * |zl - zk| away at u_min of [0, 1/2], and
    # retraces its path on [1/2, 1]; strand 4 crosses the view
    rng = random.Random(7002)
    for scale in GRAZE_SCALES:
        for factor in (0.3, 1 - 1e-6, 1.0, 1 + 1e-6, 3.0, 30.0):
            for u_min in (0.0, 1.0, rng.uniform(0, 1), rng.uniform(0, 1)):
                zk = scale * complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                zl = zk + scale * cmath.exp(1j * rng.uniform(0, TWO_PI))
                hit = rng.choice((zk, zl))
                e = cmath.exp(1j * rng.uniform(0, TWO_PI))
                s0, s1 = _passing_path(rng, scale, hit,
                                       factor * GENERICITY_TOL * abs(zl - zk),
                                       u_min, e)
                mid = (zk + zl) / 2 + 1j * (zl - zk) * rng.uniform(-1, 1)
                strands = (((0.0, zk), (1.0, zk)), ((0.0, zl), (1.0, zl)),
                           ((0.0, s0), (0.5, s1), (1.0, s0)),
                           ((0.0, mid - 2 * (zl - zk)),
                            (0.5, mid + 2 * (zl - zk)),
                            (1.0, mid - 2 * (zl - zk))))
                name = f"2^{math.frexp(scale)[1] - 1} x{factor} u={u_min!r}"
                yield [(name, _built(GeomBraid, 4, strands), PUNCTURE_READINGS)]


def two_strand():
    rng = random.Random(814)
    for index in range(1000):
        yield [(f"{index}", _built(random_two_strand, rng), VIEW_READINGS[:3])]


def huge():
    rng = random.Random(17)

    def coord():
        return rng.choice((-1, 1)) * 10.0 ** rng.uniform(150, 308)

    # standing still near the corner (1.5e308, 1.5e308) of float range
    corner = 1.5e308 + 1.5e308j
    strands = tuple(((0.0, corner + z), (1.0, corner + z))
                    for z in (0, 1e300, 1e300j, 1e300 + 1e300j))
    yield [("corner", _built(GeomBraid, 4, strands), HUGE_READINGS)]
    for index in range(600):
        moves = 10.0 ** -rng.uniform(0, 200)
        drawn = tuple(((0.0, z), (rng.uniform(0.1, 0.9),
                                  z + complex(coord(), coord()) * moves),
                       (1.0, z))
                      for z in (complex(coord(), coord()) for _ in range(4)))
        yield [(f"{index}", _built(GeomBraid, 4, drawn), HUGE_READINGS)]


ALGEBRA_READINGS = (("matrix", lambda m: mat_to_text(m).replace("\n", ";")
                     + " " + json.dumps(mat_to_json(m), sort_keys=True)),)


def _cocycle_image(letters, n, pos, d):
    """A B_n word translated by p_k from start position pos, through f_d
    and rho."""
    out, _ = strand_removal_letters(letters, n, pos)
    return rep.word_image(f_d(Word(GroupId("CPB", n - 1), tuple(out)), d),
                          rep.RHO)


def _relation_images(rep_id, family, flag, n):
    name = f"relations {rep_id} {family}{n}" + (" flat" if flag else "")
    for label, left, right in relation_suite(GroupId(family, n, flag)):
        for side, word in (("left", left), ("right", right)):
            yield (f"{name} {label} {side}",
                   _built(rep.word_image, word, rep_id), ALGEBRA_READINGS)


def _cocycle_images(n, k, d):
    for label, left, right in relation_suite(GroupId("B", n)):
        for pos in range(1, n + 1):
            for side, word in (("left", left), ("right", right)):
                yield (f"cocycle n={n} k={k} d={d} {label} from {pos} {side}",
                       _built(_cocycle_image, list(word.expanded()), n, pos,
                              d), ALGEBRA_READINGS)


def _pipeline_images(name, texts, k, d):
    """The pipeline images on B5 of the word texts, named by their sides,
    and the mat_mul of the images of 'u' and 'v' where both are given."""
    cfg = PipelineConfig(5, k, d)
    got = {side: _built(pipeline_matrix, parse_word(text, GroupId("B", 5)),
                        cfg) for side, text in texts}
    if "u" in got:
        got["u*v"] = _built(mat_mul, got["u"], got["v"])
    for side, built in got.items():
        yield f"{name} {side}", built, ALGEBRA_READINGS


def algebra():
    # nothing here is drawn at random, so an input is built only when it is
    # read, and a slice builds only its own inputs
    for case in workloads.REL_CASES:
        yield _relation_images(*case)
    for case in workloads.COC_CASES:
        yield _cocycle_images(*case)
    for k in range(1, 6):
        for d in range(1, 4):
            yield _pipeline_images(f"bigelow5 k={k} d={d}",
                                   (("image", "BIGELOW5"),), k, d)
    pairs = workloads.pinned_inputs("algebra-symbolic", "multiplicativity")
    for index, (u, v, k, d) in enumerate(pairs):
        yield _pipeline_images(f"multiplicativity {index}",
                               (("uv", f"{u} {v}"), ("u", u), ("v", v)), k, d)


FAMILIES = {f.__name__: f for f in (bench, concyclic, aligned, separation,
                                    puncture, two_strand, huge, algebra)}

# --pin reads every SLICE[family]-th input of a family, from its first
SLICE = {"bench": 40, "concyclic": 10, "aligned": 12, "separation": 10,
         "puncture": 16, "two_strand": 20, "huge": 30, "algebra": 20}


def records(slice=False):
    """(key, result) per record, key 'family input reading'."""
    for family, make in FAMILIES.items():
        inputs = make()
        if slice:
            inputs = islice(inputs, 0, None, SLICE[family])
        for group in inputs:
            for name, built, readings in group:
                for key, result in _records(name, built, readings):
                    yield f"{family} {key}", result


def line(key: str, result: str) -> str:
    return f"{key}\t{result}"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pin(key: str, result: str) -> str:
    """A record's key and the first 16 hex digits of its result's sha256."""
    return f"{key}\t{hashlib.sha256(result.encode()).hexdigest()[:16]}"


def summary(lines) -> str:
    """Per family and in all, the record count and the sha256."""
    by_family = {}
    for text in lines:
        by_family.setdefault(text.split(" ", 1)[0], []).append(text)
    rows = [*by_family.items(), ("all", list(lines))]
    return "\n".join(f"{family:<11} {len(got):>6}  {digest(got)}"
                     for family, got in rows)


def compare(path_a: str, path_b: str) -> int:
    """Print, per family, the first record in which two outputs differ;
    1 if any does."""
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return [text.rstrip("\n") for text in fh]

    a, b = load(path_a), load(path_b)
    differs = False
    for family in FAMILIES:
        fa = [x for x in a if x.startswith(family + " ")]
        fb = [x for x in b if x.startswith(family + " ")]
        first = next((i for i, (x, y) in enumerate(zip(fa, fb)) if x != y),
                     None if len(fa) == len(fb) else min(len(fa), len(fb)))
        if first is None:
            print(f"{family}: {len(fa)} records, identical")
            continue
        differs = True
        key = (fa if first < len(fa) else fb)[first].partition("\t")[0]
        print(f"{family}: first differing record: {key}")
        for path, got in ((path_a, fa), (path_b, fb)):
            text = got[first].partition("\t")[2] if first < len(got) \
                else "(no record)"
            print(f"  {path}: {text[:400]}")
    return int(differs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the records to this file")
    parser.add_argument("--pin", help="read only every few inputs of each "
                                      "family and write each record's pin "
                                      "to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="name the first record in which two outputs "
                             "differ, per family")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    got = list(records(slice=bool(args.pin)))
    lines = [line(key, result) for key, result in got]
    for path, texts in ((args.out, lines),
                        (args.pin, [pin(key, result) for key, result in got])):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(texts) + "\n")
    print(summary(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
