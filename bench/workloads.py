"""The seeded workloads of the braidrep benchmark.

A workload is a fixed round of op kinds, interleaved evenly and repeated;
the seed picks every op's inputs. An op is the program calls plus the calls
that check their output, and it raises CheckFailed when a check fails. The
program receives only the word texts and braids generated here; nothing is
drawn from braidrep's own random generators.

Seeded inputs are checked along an independent path (a product split, a
second realization scheme, a re-read after a transform, the algebraic
pipeline). Those checks cannot see an error that both paths share, so every
PIN_EVERY-th op of some kinds takes its input from a pinned pool instead,
made from a fixed generator seed, and its output is compared with a digest
recorded in expected.json by record_expected.py.

Every call into braidrep goes through ``tr.call(span_name, fn, ...)`` so that
a traced run can time it; with tracing off the call goes straight through.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

from braidrep import braidword, cli, geom, homs, laurent, relcheck, rep
from braidrep.errors import NonGenericInput

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The paper's reference image: BIGELOW5 under p_1, f_2 and rho at t=-1, s=1.
TARGET = ((481, -880, 800, -400),
          (480, -879, 800, -400),
          (480, -880, 801, -400),
          (480, -880, 800, -399))
REF_POINT = laurent.Assignment(Fraction(-1), Fraction(1))
REF_ARGV = ["rep", "BIGELOW5", "--group", "B5", "--pipeline", "pk-fd",
            "--k", "1", "--d", "2", "--eval", "t=-1,s=1"]

B5 = braidword.GroupId("B", 5)
B6 = braidword.GroupId("B", 6)

# Op kinds and how many of each make one round.
ROUNDS = {
    "algebra-symbolic": (("multiplicativity", 60), ("relations", 12),
                         ("cocycle", 10), ("bigelow5", 1)),
    "algebra-evaluated": (("evaluated", 9), ("cli_reference", 1)),
    "geometry": (("pair", 2), ("pair_d3", 2), ("cylinder", 2),
                 ("perturb", 1), ("resample", 1), ("concat", 2)),
}

# Pinned pool size, and how often a kind takes a pinned input.
PINNED = {"multiplicativity": 500, "evaluated": 1000, "pair": 200,
          "pair_d3": 200, "cylinder": 200, "perturb": 200, "resample": 200,
          "concat": 200}
PIN_EVERY = {"multiplicativity": 10, "evaluated": 9, "pair": 2, "pair_d3": 2,
             "cylinder": 2, "perturb": 2, "resample": 2, "concat": 2}

# Every output check, by workload; the smoke test asserts each one ran.
CHECKS = {
    "algebra-symbolic": ("multiplicativity", "multiplicativity_digest",
                         "relations_digest", "cocycle_digest",
                         "bigelow5_reference", "bigelow5_digest"),
    "algebra-evaluated": ("evaluated_multiplicativity", "evaluated_digest",
                          "cli_reference"),
    "geometry": ("swap_in_place", "pair_digest", "swap_in_place_d3",
                 "pair_d3_digest", "cylinder_vs_pipeline", "cylinder_digest",
                 "perturb", "perturb_digest", "resample", "resample_digest",
                 "concat", "concat_digest"),
}

# Input sizes (see bench/README.md for the reasons).
REL_CASES = tuple((rep_id, family, flag, n)
                  for n in range(3, 7)
                  for rep_id, family, flag in (
                      (rep.RHO, "CPB", False), (rep.RHO, "VCB", False),
                      (rep.RHO_TILDE, "FVB", False),
                      (rep.RHO_TILDE, "FVB", True),
                      (rep.BURAU_UNREDUCED, "B", False),
                      (rep.BURAU_REDUCED, "B", False)))
COC_CASES = tuple((n, k, d) for n in range(3, 7) for k in range(1, n + 1)
                  for d in (1, 2, 3))
MUL_STRANDS, MUL_BANDS = 5, 8
EVAL_STRANDS, EVAL_FACTORS = (4, 5, 6), 6
EVAL_VALUES = tuple(sorted({Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3)
                            for b in (1, 2, 3)}))
GEOM_SPAN = 4
GEOM_SPREAD = 0.25
PERTURB_MAG = 1e-6
GEOM_PAIRS = tuple((k, l) for k in range(1, 7) for l in range(1, 7) if k != l)


class CheckFailed(Exception):
    """An op's output did not match its check."""


def relations_key(rep_id, family, flag, n) -> str:
    return f"relations {rep_id} {family}{n}" + (" flat" if flag else "")


def cocycle_key(n, k, d) -> str:
    return f"cocycle n={n} k={k} d={d}"


BIGELOW5_KEY = "bigelow5 p_1 f_2 rho"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def interleave(mix) -> list[str]:
    """One round: each kind as often as its count, spread evenly."""
    total = sum(c for _, c in mix)
    credit = {kind: 0 for kind, _ in mix}
    out = []
    for _ in range(total):
        for kind, c in mix:
            credit[kind] += c
        best = max(mix, key=lambda kc: credit[kc[0]])[0]
        credit[best] -= total
        out.append(best)
    return out


def round_length(workload: str) -> int:
    return sum(c for _, c in ROUNDS[workload])


def pinned_inputs(workload: str, kind: str) -> list:
    """The pinned pool of one op kind; the same in every run."""
    rng = random.Random(f"{workload}/pinned/{kind}")
    return [_MAKERS[workload](kind, rng) for _ in range(PINNED[kind])]


def op_stream(workload: str, seed: int):
    """Endless sequence of (kind, pin, params) in whole rounds, where pin is
    the index of a pinned input or None; the same seed gives the same
    sequence in every process. Pinned inputs are walked in order from a
    seeded start, so a run repeats none of them."""
    rng = random.Random(f"{workload}/{seed}")
    make = _MAKERS[workload]
    pattern = interleave(ROUNDS[workload])
    pools = {kind: pinned_inputs(workload, kind) for kind in dict.fromkeys(pattern)
             if kind in PINNED}
    start = {kind: rng.randrange(PINNED[kind]) for kind in pools}
    seen = dict.fromkeys(pattern, 0)
    while True:
        for kind in pattern:
            n = seen[kind]
            seen[kind] += 1
            if kind in pools and n % PIN_EVERY[kind] == 0:
                pin = (start[kind] + n // PIN_EVERY[kind]) % PINNED[kind]
                yield kind, pin, pools[kind][pin]
            else:
                yield kind, None, make(kind, rng)


def warm_up_ops(workload: str) -> list:
    """One op of each kind, from a stream of its own. It does not depend on
    the seed, so that setup_s measures set-up and not the inputs."""
    rng = random.Random(f"{workload}/warm-up")
    make = _MAKERS[workload]
    return [(kind, None, make(kind, rng)) for kind, _ in ROUNDS[workload]]


def run_op(tr, checks, expected, kind, pin, params) -> None:
    """One op; a pinned op's output must also match its recorded digest."""
    out = OPS[kind](tr, checks, expected, params)
    if pin is not None:
        _check(checks, f"{kind}_digest",
               digest(output_text(tr, out)) == expected["pinned"][kind][pin],
               f"pin {pin}")


def output_text(tr, out) -> str:
    """Text of an op's output: a symbolic Matrix, a list of them, or rows of
    Fractions."""
    if isinstance(out, laurent.Matrix):
        return tr.call("laurent.mat_to_text", laurent.mat_to_text, out)
    if isinstance(out, list):
        return "\n\n".join(output_text(tr, m) for m in out)
    return "\n".join(",".join(str(x) for x in row) for row in out)


# -- input generation -----------------------------------------------------------


def _band(rng, n) -> str:
    i = rng.randrange(1, n)
    j = rng.randrange(i + 1, n + 1)
    return f"A[{i},{j}]" + ("^-1" if rng.random() < 0.5 else "")


def _make_symbolic(kind, rng):
    if kind == "multiplicativity":
        u = " ".join(_band(rng, MUL_STRANDS) for _ in range(MUL_BANDS))
        v = " ".join(_band(rng, MUL_STRANDS) for _ in range(MUL_BANDS))
        return u, v, rng.randrange(1, MUL_STRANDS + 1), rng.choice((1, 2))
    if kind == "relations":
        return rng.choice(REL_CASES)
    if kind == "cocycle":
        return rng.choice(COC_CASES)
    return None


def _eval_factor(rng, n) -> str:
    r = rng.random()
    if r < 0.4:
        return _band(rng, n)
    if r < 0.7:
        atoms = [_band(rng, n) if rng.random() < 0.7
                 else f"s{rng.randrange(1, n)}^2" for _ in range(2)]
        return f"comm({atoms[0]}; {atoms[1]})"
    return f"({_band(rng, n)} {_band(rng, n)})^{rng.choice((2, 3, -2))}"


def _make_evaluated(kind, rng):
    if kind != "evaluated":
        return None
    n = rng.choice(EVAL_STRANDS)
    factors = tuple(_eval_factor(rng, n) for _ in range(EVAL_FACTORS))
    point = laurent.Assignment(rng.choice(EVAL_VALUES), rng.choice(EVAL_VALUES))
    return (n, factors, rng.randrange(1, n + 1), rng.choice((1, 2, 3)), point,
            rng.randrange(1, EVAL_FACTORS))


def _span_band(rng, span) -> str:
    i = rng.randrange(1, 7 - span)
    return f"A[{i},{i + span}]" + ("^-1" if rng.random() < 0.5 else "")


def _zero_linking_text(rng) -> str:
    """Commutator of two distinct band generators on 6 strands whose spans
    add up to GEOM_SPAN, so every braid has 4 * GEOM_SPAN crossings."""
    while True:
        span = rng.randrange(1, GEOM_SPAN)
        a, b = _span_band(rng, span), _span_band(rng, GEOM_SPAN - span)
        if a.split("^")[0] != b.split("^")[0]:
            return f"comm({a}; {b})"


def _make_geometry(kind, rng):
    text = _zero_linking_text(rng)
    k, l = rng.choice(GEOM_PAIRS)
    if kind == "cylinder":
        return text, rng.randrange(1, 7), rng.choice((1, 2, 3))
    if kind == "perturb":
        return text, k, l, rng.randrange(1 << 30)
    if kind == "concat":
        return text, k, l, _zero_linking_text(rng)
    return text, k, l


_MAKERS = {"algebra-symbolic": _make_symbolic,
           "algebra-evaluated": _make_evaluated,
           "geometry": _make_geometry}


# -- traced calls -------------------------------------------------------------------


def _check(checks, name, ok, detail="") -> None:
    checks[name] = checks.get(name, 0) + 1
    if not ok:
        raise CheckFailed(f"{name} {detail}".strip())


def _letters(word) -> int:
    return sum(abs(l.power) for l in word.letters)


def _parse(tr, text, group):
    word = tr.call("braidword.parse_word", braidword.parse_word, text, group)
    if tr.enabled:
        tr.count("braidword.letters_parsed", _letters(word))
    return word


def _terms(tr, m) -> None:
    if tr.enabled:
        sizes = [len(x) for row in m.rows for x in row]
        tr.count("laurent.terms_out", sum(sizes))
        tr.peak("laurent.terms_max", max(sizes))


def _image(tr, word, rep_id, point=None):
    if tr.enabled:
        tr.count("rep.letters_folded", _letters(word))
    if point is not None:
        return tr.call("rep.word_image_evaluated", rep.word_image, word,
                       rep_id, point)
    m = tr.call("rep.word_image_symbolic", rep.word_image, word, rep_id)
    _terms(tr, m)
    return m


def _p_k(tr, word, k):
    return tr.call("homs.p_k", homs.p_k, word, k)


def _f_d(tr, word, d):
    out = tr.call("homs.f_d", homs.f_d, word, d)
    if tr.enabled:
        tr.count("homs.letters_out", _letters(out))
    return out


def _pipeline(tr, word, cfg):
    m = tr.call("homs.pipeline_matrix", homs.pipeline_matrix, word, cfg)
    _terms(tr, m)
    return m


def _mat_mul(tr, a, b):
    m = tr.call("laurent.mat_mul", laurent.mat_mul, a, b)
    _terms(tr, m)
    return m


def _equal(tr, a, b) -> bool:
    return tr.call("laurent.matrix_eq", operator.eq, a, b)


# -- algebra-symbolic ---------------------------------------------------------------


def _op_multiplicativity(tr, checks, expected, params):
    u_text, v_text, k, d = params
    cfg = homs.PipelineConfig(MUL_STRANDS, k, d)
    u = _parse(tr, u_text, B5)
    v = _parse(tr, v_text, B5)
    uv = _parse(tr, f"{u_text} {v_text}", B5)
    whole = _pipeline(tr, uv, cfg)
    split = _mat_mul(tr, _pipeline(tr, u, cfg), _pipeline(tr, v, cfg))
    _check(checks, "multiplicativity", _equal(tr, whole, split), u_text)
    return whole


def _op_relations(tr, checks, expected, params):
    rep_id, family, flag, n = params
    group = braidword.GroupId(family, n, flag)
    report = tr.call("relcheck.verify_relations", relcheck.verify_relations,
                     rep_id, group)
    tr.count("relcheck.checked", report.checked)
    key = relations_key(*params)
    _check(checks, "relations_digest",
           report.passed and report.checked == expected[key], key)


def _op_cocycle(tr, checks, expected, params):
    n, k, d = params
    report = tr.call("relcheck.verify_pk_cocycle", relcheck.verify_pk_cocycle,
                     n, k, d, pairs=0)
    tr.count("relcheck.checked", report.checked)
    key = cocycle_key(*params)
    _check(checks, "cocycle_digest",
           report.passed and report.checked == expected[key], key)


def bigelow5_image(tr):
    """BIGELOW5 through p_1, f_2 and the symbolic rho image."""
    word = _f_d(tr, _p_k(tr, _parse(tr, "BIGELOW5", B5), 1), 2)
    return word, _image(tr, word, rep.RHO)


def bigelow5_text(tr, word, m) -> str:
    return (tr.call("braidword.format_word", braidword.format_word, word)
            + "\n" + output_text(tr, m))


def _op_bigelow5(tr, checks, expected, params):
    word, m = bigelow5_image(tr)
    values = tr.call("laurent.mat_eval", laurent.mat_eval, m, REF_POINT)
    _check(checks, "bigelow5_reference", values == TARGET)
    _check(checks, "bigelow5_digest",
           digest(bigelow5_text(tr, word, m)) == expected[BIGELOW5_KEY])


# -- algebra-evaluated --------------------------------------------------------------


def _evaluated_chain(tr, text, n, k, d, point):
    word = _parse(tr, text, braidword.GroupId("B", n))
    return _image(tr, _f_d(tr, _p_k(tr, word, k), d), rep.RHO, point)


def _fraction_product(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def _op_evaluated(tr, checks, expected, params):
    n, factors, k, d, point, cut = params
    whole = _evaluated_chain(tr, " ".join(factors), n, k, d, point)
    left = _evaluated_chain(tr, " ".join(factors[:cut]), n, k, d, point)
    right = _evaluated_chain(tr, " ".join(factors[cut:]), n, k, d, point)
    _check(checks, "evaluated_multiplicativity",
           whole == _fraction_product(left, right), " ".join(factors))
    return whole


def _op_cli_reference(tr, checks, expected, params):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tr.call("cli.main", cli.main, REF_ARGV)
    want = [",".join(str(x) for x in row) for row in TARGET]
    _check(checks, "cli_reference",
           code == 0 and out.getvalue().splitlines() == want)


# -- geometry -----------------------------------------------------------------------


def _breakpoints(tr, braid) -> None:
    if tr.enabled:
        tr.count("geom.breakpoints", sum(len(s) for s in braid.strands))


def _braid(tr, text):
    word = _parse(tr, text, B6)
    braid = tr.call("geom.artin_dynamics", geom.artin_dynamics, word,
                    radial_spread=GEOM_SPREAD)
    _breakpoints(tr, braid)
    return word, braid


def _transform(tr, fn, *args):
    braid = tr.call("geom.transform", fn, *args)
    _breakpoints(tr, braid)
    return braid


def _reading(tr, name, fn, *args):
    """One reading of a braid; refusals are counted before they propagate."""
    tr.count("geom.readings")
    try:
        return tr.call(name, fn, *args)
    except NonGenericInput:
        tr.count("geom.nongeneric")
        raise


def _puncture(tr, braid, k, l):
    return tr.call("geom.q_kl", geom.q_kl, braid, k, l)


def _pair_events(tr, punctured, d):
    if d is None:
        events = _reading(tr, "geom.psi_events", geom.psi_events, punctured)
    else:
        events = _reading(tr, "geom.psi_d_events", geom.psi_d_events,
                          punctured, d)
    tr.count("geom.events", len(events))
    order = tr.call("geom.initial_order", geom.initial_order, punctured)
    return events, punctured.n, order


def _realize(tr, events, m, order, scheme):
    return tr.call("geom.realize_flat_virtual", geom.realize_flat_virtual,
                   events, m, scheme, initial_order=order)


def _readings(tr, braid, k, l):
    """The plain and the d=3 rho-tilde pair images of a braid, both read
    off one q_kl."""
    punctured = _puncture(tr, braid, k, l)
    out = []
    for d in (None, 3):
        events, m, order = _pair_events(tr, punctured, d)
        out.append(_image(tr, _realize(tr, events, m, order,
                                       "route-and-return"), rep.RHO_TILDE))
    return out


def _all_equal(tr, first, second) -> bool:
    return all([_equal(tr, a, b) for a, b in zip(first, second)])


def _schemes_agree(tr, checks, name, braid, k, l, d):
    events, m, order = _pair_events(tr, _puncture(tr, braid, k, l), d)
    route = _image(tr, _realize(tr, events, m, order, "route-and-return"),
                   rep.RHO_TILDE)
    swap = _image(tr, _realize(tr, events, m, order, "swap-in-place"),
                  rep.RHO_TILDE)
    _check(checks, name, _equal(tr, route, swap), f"pair {(k, l)}")
    return route


def _op_pair(tr, checks, expected, params):
    text, k, l = params
    return _schemes_agree(tr, checks, "swap_in_place", _braid(tr, text)[1],
                          k, l, None)


def _op_pair_d3(tr, checks, expected, params):
    text, k, l = params
    return _schemes_agree(tr, checks, "swap_in_place_d3", _braid(tr, text)[1],
                          k, l, 3)


def _op_cylinder(tr, checks, expected, params):
    text, k, d = params
    word, braid = _braid(tr, text)
    events = tr.call("geom.cylinder_events", geom.cylinder_events, braid, k)
    tr.count("geom.cylinder_events", len(events))
    read = _reading(tr, "geom.power_map_extract", geom.power_map_extract,
                    braid, k, d)
    algebra = _pipeline(tr, word, homs.PipelineConfig(6, k, d))
    image = _image(tr, read, rep.RHO)
    _check(checks, "cylinder_vs_pipeline", _equal(tr, image, algebra),
           f"{text} k={k} d={d}")
    return image


# A stability re-read reads both the plain and the d=3 images of each braid.


def _op_perturb(tr, checks, expected, params):
    text, k, l, seed = params
    braid = _braid(tr, text)[1]
    shaken = _transform(tr, geom.perturb, braid, seed, PERTURB_MAG)
    images = _readings(tr, braid, k, l)
    _check(checks, "perturb",
           _all_equal(tr, images, _readings(tr, shaken, k, l)), text)
    return images


def _op_resample(tr, checks, expected, params):
    text, k, l = params
    braid = _braid(tr, text)[1]
    finer = _transform(tr, geom.resample, braid, 2)
    images = _readings(tr, braid, k, l)
    _check(checks, "resample",
           _all_equal(tr, images, _readings(tr, finer, k, l)), text)
    return images


def _op_concat(tr, checks, expected, params):
    text, k, l, second_text = params
    first = _braid(tr, text)[1]
    second = _braid(tr, second_text)[1]
    glued = _transform(tr, geom.concat, first, second)
    split = [_mat_mul(tr, a, b) for a, b in
             zip(_readings(tr, first, k, l), _readings(tr, second, k, l))]
    images = _readings(tr, glued, k, l)
    _check(checks, "concat", _all_equal(tr, images, split), text)
    return images


OPS = {
    "multiplicativity": _op_multiplicativity,
    "relations": _op_relations,
    "cocycle": _op_cocycle,
    "bigelow5": _op_bigelow5,
    "evaluated": _op_evaluated,
    "cli_reference": _op_cli_reference,
    "pair": _op_pair,
    "pair_d3": _op_pair_d3,
    "cylinder": _op_cylinder,
    "perturb": _op_perturb,
    "resample": _op_resample,
    "concat": _op_concat,
}
