"""Property tests of the command-line contract: whatever the argument text
or the braid JSON, braidrep exits with a code in 0..5 and never with a
traceback.

Generated powers stay in -3..3 and no token starts with a digit, so a power
can never grow into something like s1^2000000: that parses as one letter,
but folding its image can outrun CALL_SECONDS. Word sizes are bounded by
the token count. Only the large-power test draws single-letter powers up to
20,000, under --eval on B2 and B3, where a fold takes at most about 2 s.
Each call also runs under a CALL_SECONDS alarm and fails, naming its argv,
when the alarm fires; hypothesis itself keeps no per-example deadline
(conftest.py), because the host's speed varies.
"""

import io
import json
import math
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from braidrep.braidword import GroupId, parse_word
from braidrep.cli import main
from braidrep.geom import artin_dynamics, braid_to_json
from braidrep.rep import REP_IDS


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:     # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


CALL_SECONDS = 20    # time bound on one CLI call


class CallTimedOut(BaseException):
    """Raised by the alarm; a BaseException, so that no handler in the CLI
    (which maps OSError, and so TimeoutError, to an exit code) swallows it."""


def _expired(signum, frame):
    raise CallTimedOut


def assert_contract(argv):
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(CALL_SECONDS)
    try:
        code, _, err = run_cli(argv)
    except CallTimedOut:
        pytest.fail(f"CLI call ran past {CALL_SECONDS} s: {argv!r}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in range(6), (argv, code, err)
    assert "Traceback" not in err
    if code >= 2:
        assert "error:" in err, (argv, code, err)
    return code


def test_contract_fails_a_call_that_outruns_its_bound(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "CALL_SECONDS", 1)
    monkeypatch.setattr(sys.modules[__name__], "main",
                        lambda argv: time.sleep(30))
    with pytest.raises(pytest.fail.Exception,
                       match=r"ran past 1 s: \['geom', '--n', '4'\]"):
        assert_contract(["geom", "--n", "4"])
    assert signal.getsignal(signal.SIGALRM) is not _expired


TOKENS = ("s1", "s2", "s4", "s0", "s9", "t1", "p1", "z", "s", "A[1,3]",
          "A[3,1]", "A[", "A[2,", "]", ",", "comm(", ";", "(", ")", "Dc", "Dv",
          "BIGELOW5", "^", "^-", "-", " ", "x", "#", "é", "\t")
POWERS = st.integers(-3, 3).map(lambda k: f"^{k}")
NOISE = st.sampled_from(("", "x", "-1", "0", "9", "1.5", "nan", "B0", "CPB1",
                         "rho", "--json", "--group", "t=1/0", "t=0,s=1",
                         "q=2")) \
    | st.lists(st.sampled_from(TOKENS) | POWERS, max_size=8).map("".join)

# Atoms valid in every group of a family on 3 to 5 strands.
PURE_ATOMS = ("A[1,2]", "A[1,3]", "A[2,3]^-1", "comm(A[1,2]; A[2,3])",
              "(A[1,3] A[2,3])^2")
ATOMS = {"B": PURE_ATOMS + ("s1", "s2^-1", "Dc", "comm(s1; s2)", "(s1 s2)^3"),
         "CPB": ("s1", "s3^-1", "z", "z^-2", "Dc", "(s1 z)^2"),
         "VCB": ("s1", "t2", "t3", "z^-1", "Dv", "comm(s1; t2)"),
         "FVB": ("s1", "p2", "t1", "Dc", "Dv", "(s1 p1)^3")}
FAMILY_REPS = {"B": ("rho", "burau-reduced", "burau-unreduced"),
               "CPB": ("rho",), "VCB": ("rho",), "FVB": ("rho-tilde",)}
EVALS = st.sampled_from(("t=-1,s=1", "t=1/2,s=3", "t=2,s=-1,r=3/4",
                         "t=1e3,s=-2/5"))


def word(family, atoms=None):
    return st.lists(st.sampled_from(atoms or ATOMS[family]),
                    max_size=5).map(" ".join)


def group(family):
    return st.integers(3, 5).map(lambda n: f"{family}{n}")


def flags(*names):
    return st.lists(st.sampled_from(names), unique=True)


def optional(*argv):
    """Each argument list is left out or given, in order."""
    return st.tuples(*(st.none() | a for a in argv)).map(
        lambda chosen: [x for c in chosen if c for x in c])


def number(lo, hi):
    return st.integers(lo, hi).map(str)


@st.composite
def spoiled(draw, commands):
    """A well-formed command line, or one with one argument replaced by
    noise or dropped."""
    argv = draw(commands)
    how = draw(st.sampled_from(("as is", "replace", "drop")))
    if how != "as is":
        i = draw(st.integers(1, len(argv) - 1))
        argv[i:i + 1] = [draw(NOISE)] if how == "replace" else []
    return argv


FAMILIES = st.sampled_from(tuple(ATOMS))


def parse_commands(family):
    return st.tuples(word(family), group(family),
                     optional(st.just(["--comm-convention", "inverse-first"]),
                              st.just(["--json"]))).map(
        lambda c: ["parse", c[0], "--group", c[1], *c[2]])


def rep_commands(family):
    pick = st.sampled_from(FAMILY_REPS[family]).map(lambda r: ["--rep", r])
    if family == "B":
        pick = pick | st.tuples(number(1, 5), number(1, 3)).map(
            lambda kd: ["--pipeline", "pk-fd", "--k", kd[0], "--d", kd[1]])
    return st.tuples(word(family, PURE_ATOMS if family == "B" else None),
                     group(family), pick,
                     optional(EVALS.map(lambda e: ["--eval", e]),
                              st.just(["--json"]))).map(
        lambda c: ["rep", c[0], "--group", c[1], *c[2], *c[3]])


MAP_COMMANDS = st.tuples(word("B", PURE_ATOMS), group("B"), number(1, 5),
                         optional(number(1, 3).map(lambda d: ["--fd", d]),
                                  st.just(["--json"]))).map(
    lambda c: ["map", c[0], "--group", c[1], "--pk", c[2], *c[3]])
CHECK_COMMANDS = st.one_of(
    FAMILIES.flatmap(lambda f: st.tuples(
        st.sampled_from(FAMILY_REPS[f]), group(f), flags("--flat-braid",
                                                         "--json")).map(
        lambda c: ["check", "--rep", c[0], "--group", c[1], *c[2]])),
    st.tuples(number(3, 5), number(1, 5), number(1, 3), number(1, 2),
              flags("--json")).map(
        lambda c: ["check", "--cocycle", "--n", c[0], "--k", c[1],
                   "--d", c[2], "--pairs", c[3], *c[4]]),
    st.tuples(number(3, 4), number(1, 4), number(1, 2),
              flags("--json")).map(
        lambda c: ["check", "--oracle", "--n", c[0], "--k", c[1], "--d", c[2],
                   "--count", "1", "--factors", "1", *c[3]]))


@given(argv=spoiled(FAMILIES.flatmap(parse_commands)))
def test_parse_contract(argv):
    assert_contract(argv)


@settings(max_examples=60)
@given(argv=spoiled(FAMILIES.flatmap(rep_commands)))
def test_rep_contract(argv):
    assert_contract(argv)


# A single-letter power of 10,000 to 20,000 at a point other than +-1: its
# image's entries have more digits than the int-to-str limit of 4,300.
LARGE_POWER_COMMANDS = st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.integers(1, n - 1),
    st.integers(10000, 20000) | st.integers(-20000, -10000),
    st.sampled_from(FAMILY_REPS["B"]),
    st.sampled_from(("t=2/3,s=1", "t=3/2,s=-1/2")), flags("--json")).map(
    lambda c: ["rep", f"s{c[0]}^{c[1]}", "--group", f"B{n}", "--rep", c[2],
               "--eval", c[3], *c[4]]))


@settings(max_examples=12)
@given(argv=LARGE_POWER_COMMANDS)
def test_rep_large_power_contract(argv):
    assert assert_contract(argv) == 0, argv


@settings(max_examples=60)
@given(argv=spoiled(MAP_COMMANDS))
def test_map_contract(argv):
    assert_contract(argv)


@settings(max_examples=60)
@given(argv=spoiled(CHECK_COMMANDS))
def test_check_contract(argv):
    assert_contract(argv)


BASE_BRAID = braid_to_json(artin_dynamics(
    parse_word("comm(A[1,3]; A[2,4])", GroupId("B", 4)),
    segments_per_crossing=2))
ODD_VALUES = st.sampled_from((math.nan, math.inf, -math.inf, 1e308, -1e308,
                              5e-324, 0.0, 1.0, "x", "1.5", None, [], True))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3)
    | st.floats(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(("n", "strands", "pure")), inner,
                      max_size=3),
    max_leaves=12)


@st.composite
def braid_documents(draw, kind):
    """Text of a braid JSON file: a 4-strand pure braid, as it is, scaled,
    or with one field spoiled (a point, a breakpoint's length, a strand,
    n); or any JSON value; or a value nested far deeper than the parser
    recurses; or text that is not JSON."""
    doc = json.loads(json.dumps(BASE_BRAID))
    strands = doc["strands"]
    if kind == "scaled":
        f = draw(st.sampled_from((1e-300, 1e-8, -1e3, 1e100, 1e160)))
        doc["strands"] = [[[t, x * f, y * f] for t, x, y in bps]
                          for bps in strands]
    elif kind == "point":
        s = draw(st.integers(0, len(strands) - 1))
        b = draw(st.integers(0, len(strands[s]) - 1))
        strands[s][b][draw(st.integers(0, 2))] = draw(ODD_VALUES | st.floats())
    elif kind == "ragged":
        s = draw(st.integers(0, len(strands) - 1))
        b = draw(st.integers(0, len(strands[s]) - 1))
        strands[s][b] = strands[s][b][:draw(st.integers(0, 2))] \
            + draw(st.lists(ODD_VALUES, max_size=1))
    elif kind == "strand":
        del strands[draw(st.integers(0, len(strands) - 1))]
    elif kind == "n":
        doc["n"] = draw(ODD_VALUES | st.integers(-1, 5))
    elif kind == "any":
        doc = draw(JSON_VALUES)
    elif kind == "deep":
        depth = draw(st.sampled_from((10 ** 4, 10 ** 5)))
        opener, inner, closer = draw(st.sampled_from(
            (("[", "", "]"), ('{"strands": ', "[]", "}"))))
        return opener * depth + inner + closer * depth
    else:
        return draw(st.text(max_size=12))
    return json.dumps(doc)


READINGS = st.sampled_from((
    [], ["--project-pk", "1"], ["--project-pk", "3"], ["--project-pk", "0"],
    ["--psi", "1", "2"], ["--psi", "2", "3", "--psi-d", "3"],
    ["--power-map", "2", "--d", "2"], ["--linking"], ["--emit-braid"],
    ["--project-pk", "2", "--emit-events"],
    ["--resample", "2", "--psi", "1", "3"], ["--perturb", "1e-7"],
    ["--cut-angle", "1.5", "--project-pk", "1"]))


@pytest.mark.parametrize("kind", ("as is", "scaled", "point", "ragged",
                                  "strand", "n", "any", "deep", "text"))
def test_geom_in_contract(tmp_path_factory, kind):
    path = tmp_path_factory.mktemp("braid") / "braid.json"

    @settings(max_examples=12)
    @given(document=braid_documents(kind), reading=READINGS)
    def check(document, reading):
        path.write_text(document, encoding="utf-8")
        assert_contract(["geom", "--in", str(path), *reading])

    check()
