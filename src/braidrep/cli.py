"""Command-line interface.

Subcommands: parse (normalize a word), rep (matrix image of a word), map
(word-level strand removal and power substitution), check (relation suites,
cocycle checks, trajectory cross-checks), geom (trajectory synthesis and
extraction), example (built-in kernel-element demonstration).

Exit codes: 0 success, 1 a check reported failures, 2 usage or syntax
errors, 3 purity or winding violations, 4 genericity violations, 5 nonzero
winding where zero is required.

main parses every call with one parser, built on the process's first call,
so a program that calls main many times builds it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import braidword, geom, homs, relcheck, rep as repmod
from .errors import BraidrepError
from .laurent import Assignment, mat_to_json, mat_to_text


_PIPELINE_MODES = ("cocycle", "oracle")
_READINGS = ("project_pk", "power_map", "psi")
# Options that only modify a mode, by subcommand: dest -> (the dests of the
# modes it modifies, its default). A default other than None is filled in
# here, so that argparse's None shows whether the option was given.
_MODIFIERS = {
    "check": {"group": (("rep",), None), "flat_braid": (("rep",), False),
              "n": (_PIPELINE_MODES, 4), "k": (_PIPELINE_MODES, 1),
              "d": (_PIPELINE_MODES, 1), "seed": (_PIPELINE_MODES, 0),
              "pairs": (("cocycle",), 4), "count": (("oracle",), 3),
              "factors": (("oracle",), 2)},
    "rep": {"k": (("pipeline",), 1), "d": (("pipeline",), 1)},
    "geom": {"psi_d": (("psi",), None), "d": (("power_map",), None),
             "scheme": (("psi",), "route-and-return"),
             "seed": (("perturb",), 0),
             "emit_matrix": (_READINGS, False),
             "emit_events": (_READINGS, False),
             "eval": (("emit_matrix",), None),
             "cut_angle": (("project_pk", "power_map"), None)},
}


def _given(value) -> bool:
    return value is not None and value is not False


def _apply_modifiers(args) -> None:
    for dest, (modes, default) in _MODIFIERS.get(args.command, {}).items():
        value = getattr(args, dest)
        if value is None:
            setattr(args, dest, default)
        elif _given(value) and not any(_given(getattr(args, m)) for m in modes):
            flags = " or ".join("--" + m.replace("_", "-") for m in modes)
            raise ValueError(f"--{dest.replace('_', '-')} needs {flags}")


def _parse_eval(text: str) -> Assignment:
    vals = {}
    for chunk in text.replace(",", " ").split():
        name, _, value = chunk.partition("=")
        if name not in ("t", "s", "r") or not value:
            raise ValueError(f"bad assignment {chunk!r}; expected t=..,s=..,r=..")
        try:
            vals[name] = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {chunk!r}") from None
    if "t" not in vals or "s" not in vals:
        raise ValueError("assignment must bind at least t and s")
    return Assignment(vals["t"], vals["s"], vals.get("r", Fraction(1)))


def _print_matrix(mat, evaluated: bool, as_json: bool = False) -> None:
    """Print an image with every digit. CPython (3.10.7 and later) refuses
    to write an int of more than 4300 digits by default, so that limit is
    lifted while the text is built and restored before anything prints."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if as_json:
            text = json.dumps([[str(x) for x in row] for row in mat]
                              if evaluated else mat_to_json(mat), indent=2)
        elif evaluated:
            text = "\n".join(",".join(str(x) for x in row) for row in mat)
        else:
            text = mat_to_text(mat)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    print(text)


def _load_word(args) -> braidword.Word:
    group = braidword.parse_group(args.group)
    return braidword.parse_word(args.word, group,
                                comm_convention=args.comm_convention)


def _add_word_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("word", help="word text; macros: comm(a;b), A[i,j], Dc, Dv, BIGELOW5")
    p.add_argument("--group", required=True,
                   help="group id, e.g. B5, CPB4, VCB4, FVB3")
    p.add_argument("--comm-convention", choices=("direct", "inverse-first"),
                   default="direct", help="expansion used by comm(a;b)")


def _cmd_parse(args) -> int:
    word = _load_word(args)
    if args.json:
        print(json.dumps(braidword.word_to_json(word), indent=2))
        return 0
    print(braidword.format_word(word))
    perm = braidword.underlying_permutation(word)
    letters = sum(abs(l.power) for l in word.letters)
    print(f"group: {word.group}  letters: {letters}  "
          f"pure: {braidword.is_pure(word)}")
    print("permutation: " + " ".join(str(p) for p in perm))
    return 0


def _cmd_rep(args) -> int:
    word = _load_word(args)
    assignment = _parse_eval(args.eval) if args.eval else None
    if args.pipeline:
        cfg = homs.PipelineConfig(word.group.strands, args.k, args.d)
        mat = homs.pipeline_matrix(word, cfg, assignment)
    else:
        mat = repmod.word_image(word, args.rep, assignment)
    _print_matrix(mat, assignment is not None, args.json)
    return 0


def _cmd_map(args) -> int:
    word = _load_word(args)
    if args.pk is None and args.fd is None:
        raise ValueError("nothing to do: pass --pk and/or --fd")
    if args.pk is not None:
        word = homs.p_k(word, args.pk)
    if args.fd is not None:
        word = homs.f_d(word, args.fd)
    if args.json:
        print(json.dumps(braidword.word_to_json(word), indent=2))
    else:
        print(braidword.format_word(word))
        print(f"group: {word.group}")
    return 0


def _cmd_check(args) -> int:
    for dest in ("pairs", "count", "factors"):
        if getattr(args, dest) < 0:
            raise ValueError(f"--{dest} must not be negative")
    if args.rep:
        if args.group is None:
            raise ValueError("--rep needs --group")
        group = braidword.parse_group(args.group,
                                      flat_braid_relation=args.flat_braid)
        report = relcheck.verify_relations(args.rep, group)
    elif args.cocycle:
        report = relcheck.verify_pk_cocycle(args.n, args.k, args.d,
                                            seed=args.seed, pairs=args.pairs)
    else:
        rng = random.Random(args.seed)
        words = [braidword.random_pure_word(args.n, rng, args.factors)
                 for _ in range(args.count)]
        cfg = homs.PipelineConfig(args.n, args.k, args.d)
        report = relcheck.verify_oracle_agreement(words, cfg)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def _obtain_braid(args) -> geom.GeomBraid:
    if args.synth:
        group = braidword.parse_group(args.group or f"B{args.n}")
        word = braidword.parse_word(args.synth, group)
        braid = geom.artin_dynamics(word, segments_per_crossing=args.segments,
                                    radial_spread=args.spread)
    elif args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:    # the parser recurses per nesting level
                raise ValueError("malformed braid JSON: nested too "
                                 "deeply") from None
        braid = geom.braid_from_json(data)
    else:
        raise ValueError("pass --synth WORD or --in FILE")
    if args.perturb:
        braid = geom.perturb(braid, args.seed, args.perturb)
    if args.resample != 1:
        braid = geom.resample(braid, args.resample)
    return braid


def _cmd_geom(args) -> int:
    braid = _obtain_braid(args)
    emitted = False
    word = events = None
    if args.project_pk is not None:
        events, word = geom.cylinder_reading(braid, args.project_pk, None,
                                             args.cut_angle)
    elif args.power_map is not None:
        events, word = geom.cylinder_reading(
            braid, args.power_map, 1 if args.d is None else args.d,
            args.cut_angle)
    elif args.psi is not None:
        k, l = args.psi
        events, word = geom.pair_reading(braid, k, l, args.psi_d, args.scheme)
    if args.linking:
        for i in range(1, braid.n + 1):
            for j in range(i + 1, braid.n + 1):
                print(f"lk({i},{j}) = {geom.linking_number(braid, i, j)}")
        emitted = True
    if args.emit_events:
        print(json.dumps(geom.events_to_json(events), indent=2))
        emitted = True
    if word is not None:
        print(braidword.format_word(word))
        print(f"group: {word.group}")
        emitted = True
        if args.emit_matrix:
            rep_id = repmod.RHO if word.group.family in ("CPB", "VCB") \
                else repmod.RHO_TILDE
            assignment = _parse_eval(args.eval) if args.eval else None
            mat = repmod.word_image(word, rep_id, assignment)
            _print_matrix(mat, assignment is not None)
    if args.emit_braid:
        print(json.dumps(geom.braid_to_json(braid)))
        emitted = True
    if args.svg:
        marks = geom.events_to_json(events or ())
        if args.psi is not None:    # view strand v is the v-th other than k, l
            others = [s for s in range(1, braid.n + 1) if s not in args.psi]
            for mark in marks:
                mark["pair"] = [others[v - 1] for v in mark["pair"]]
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(geom.render_svg(braid, marks))
        print(f"wrote {args.svg}")
        emitted = True
    if not emitted:
        print(f"braid: {braid.n} strands, "
              f"{sum(len(s) for s in braid.strands)} breakpoints, "
              f"pure: {braid.pure}")
    return 0


def _cmd_example(args) -> int:
    word = braidword.bigelow5()
    cfg = homs.PipelineConfig(5, args.k, args.d)
    print(f"# kernel-element word on 5 strands, {len(word.expanded())} letters")
    print(f"# reduced-dimension image is the identity: "
          f"{repmod.word_image(word, repmod.BURAU_REDUCED).is_identity}")
    assignment = Assignment(Fraction(-1), Fraction(1))
    mat = homs.pipeline_matrix(word, cfg, assignment)
    print(f"# image under the k={cfg.k}, d={cfg.d} pipeline at t=-1, s=1:")
    _print_matrix(mat, True)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call. parse_args fills
    a fresh namespace on every call, and no option has a mutable default."""
    top = argparse.ArgumentParser(
        prog="braidrep",
        description="Exact matrix representations of cylindrical and "
                    "flat-virtual braid words, with a trajectory engine "
                    "for independent cross-checks.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="normalize a word and show its data")
    _add_word_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("rep", help="matrix image of a word")
    _add_word_args(p)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--rep", default=None, choices=repmod.REP_IDS)
    target.add_argument("--pipeline", default=None, choices=("pk-fd",),
                        help="composite map from plain braid words")
    p.add_argument("--k", type=int, default=None, help="strand to remove")
    p.add_argument("--d", type=int, default=None, help="power substitution")
    p.add_argument("--eval", default=None, metavar="t=..,s=..[,r=..]",
                   help="evaluate at rational values instead of symbolically")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("map", help="apply word-level maps")
    _add_word_args(p)
    p.add_argument("--pk", type=int, default=None, metavar="K",
                   help="strand removal at K")
    p.add_argument("--fd", type=int, default=None, metavar="D",
                   help="power substitution by D")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("check", help="run verification suites")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rep", default=None, choices=repmod.REP_IDS,
                      help="relation suite of a representation")
    mode.add_argument("--cocycle", action="store_true",
                      help="strand-removal consistency across start positions")
    mode.add_argument("--oracle", action="store_true",
                      help="trajectory extraction against the algebraic pipeline")
    p.add_argument("--group", default=None, help="group id for --rep")
    p.add_argument("--flat-braid", action="store_true",
                   help="include the flat braid relation (FVB only)")
    for flag in ("--n", "--k", "--d", "--seed", "--pairs", "--count",
                 "--factors"):
        p.add_argument(flag, type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("geom", help="trajectory synthesis and extraction")
    p.add_argument("--synth", default=None, metavar="WORD",
                   help="synthesize trajectories for a braid word")
    p.add_argument("--group", default=None, help="group id for --synth")
    p.add_argument("--n", type=int, default=4,
                   help="strand count when --group is omitted")
    p.add_argument("--in", dest="infile", default=None, metavar="FILE",
                   help="load a braid from JSON")
    p.add_argument("--segments", type=int, default=16)
    p.add_argument("--spread", type=float, default=0.0,
                   help="radial spread of the base configuration")
    p.add_argument("--perturb", type=float, default=None, metavar="MAG")
    p.add_argument("--resample", type=int, default=1, metavar="FACTOR")
    p.add_argument("--seed", type=int, default=None)
    reading = p.add_mutually_exclusive_group()
    reading.add_argument("--project-pk", type=int, default=None, metavar="K",
                         help="cylinder word with strand K removed, the "
                         "translation from strand K's start; any braid reads, "
                         "only map --pk needs a pure one")
    reading.add_argument("--power-map", type=int, default=None, metavar="K",
                         help="cylinder word of the d-th power reading")
    reading.add_argument("--psi", type=int, nargs=2, default=None,
                         metavar=("K", "L"),
                         help="flat-virtual word via punctures")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--psi-d", type=int, default=None,
                   help="power reading for --psi")
    p.add_argument("--scheme", default=None,
                   choices=("route-and-return", "swap-in-place"))
    p.add_argument("--linking", action="store_true",
                   help="print all pairwise winding numbers")
    p.add_argument("--emit-braid", action="store_true")
    p.add_argument("--emit-events", action="store_true")
    p.add_argument("--emit-matrix", action="store_true")
    p.add_argument("--eval", default=None, metavar="t=..,s=..[,r=..]")
    p.add_argument("--svg", default=None, metavar="FILE")
    p.add_argument("--cut-angle", type=float, default=None, metavar="RAD",
                   help="fixed cut direction of a cylinder reading, in "
                        "radians, instead of the moving radial cut")
    p.set_defaults(func=_cmd_geom, comm_convention="direct")

    p = sub.add_parser("example",
                       help="built-in kernel-element demonstration")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=_cmd_example)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_modifiers(args)
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (BraidrepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
