import argparse
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import braidrep
from braidrep import cli, geom, homs, rep, relcheck
from braidrep.braidword import (MAX_LETTERS, GroupId, Word, format_word,
                                invert, parse_word, sigma, zeta)
from braidrep.cli import main
from braidrep.geom import braid_from_json, braid_to_json
from braidrep.laurent import mat_to_text

from test_geom import FAR_EXCURSION, LOOP, NOT_CLOSING

TARGET_ROWS = ["481,-880,800,-400", "480,-879,800,-400",
               "480,-880,801,-400", "480,-880,800,-399"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rep_pipeline_evaluated(capsys):
    code, out, _ = run(capsys, "rep", "BIGELOW5", "--group", "B5",
                       "--pipeline", "pk-fd", "--k", "1", "--d", "2",
                       "--eval", "t=-1,s=1")
    assert code == 0
    assert out.splitlines() == TARGET_ROWS


def test_example_command(capsys):
    code, out, _ = run(capsys, "example")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows == TARGET_ROWS
    assert any("identity: True" in line for line in out.splitlines())


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "comm(s1; s3)", "--group", "B4")
    assert code == 0
    assert out.splitlines()[0] == "s1 s3 s1^-1 s3^-1"
    code, out, _ = run(capsys, "parse", "s1 s2", "--group", "B4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["family"] == "B"
    assert len(data["letters"]) == 2


def test_rep_symbolic_output(capsys):
    code, out, _ = run(capsys, "rep", "z", "--group", "CPB3", "--rep", "rho")
    assert code == 0
    assert out.splitlines() == ["0,1,0", "0,0,1", "1,0,0"]


def test_map_command(capsys):
    code, out, _ = run(capsys, "map", "A[1,2] A[2,3]^-1", "--group", "B3",
                       "--pk", "3", "--fd", "2")
    assert code == 0
    assert out.splitlines()[0] == "s1^3 z t1 z"
    assert "VCB2" in out
    # for d=1 the rotation block is z, so a z power is its own image
    code, out, err = run(capsys, "map", "z^2000000", "--group", "CPB3",
                         "--fd", "1")
    assert code == 0 and err == ""
    assert out == "z^2000000\ngroup: VCB3\n"


def test_check_commands(capsys):
    code, out, _ = run(capsys, "check", "--rep", "rho", "--group", "VCB3")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "check", "--cocycle", "--n", "3", "--k", "2",
                       "--d", "2")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "check", "--cocycle", "--pairs", "0")
    assert code == 0 and out == "12 checked: PASS\n"
    code, out, _ = run(capsys, "check", "--oracle", "--n", "4", "--k", "1",
                       "--d", "1", "--count", "2", "--factors", "1")
    assert code == 0 and "PASS" in out


def failures_of(capsys, *argv):
    """The failures check --json lists, which must exit 1."""
    code, out, err = run(capsys, "check", *argv, "--json")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["passed"] is False
    return report["failures"]


def test_check_rep_lists_a_broken_relation_with_both_matrices(capsys,
                                                              monkeypatch):
    # s1 acts as the plain swap of slots 1 and 2, so the braid relation of
    # B3, s1 s2 s1 = s2 s1 s2, no longer holds under burau-unreduced
    action = rep._action

    def swap_s1(rep_id, dim, kind, slots, positive):
        if slots == (1, 2):
            return ((0, ((1, (0, 0, 0), 1),)), (1, ((1, (0, 0, 0), 0),)))
        return action(rep_id, dim, kind, slots, positive)

    monkeypatch.setattr(rep, "_action", swap_s1)
    b3 = GroupId("B", 3)
    left, right = (rep.word_image(parse_word(w, b3), rep.BURAU_UNREDUCED)
                   for w in ("s1 s2 s1", "s2 s1 s2"))
    assert left != right
    assert failures_of(capsys, "--rep", "burau-unreduced", "--group",
                       "B3") == [
        {"label": "braid s1 s2", "left": "s1 s2 s1", "right": "s2 s1 s2",
         "leftMatrix": mat_to_text(left), "rightMatrix": mat_to_text(right)}]


def test_check_cocycle_lists_a_broken_case_with_both_matrices(capsys,
                                                              monkeypatch):
    # from position 2 the left side of the braid relation gains a z
    removal = relcheck.strand_removal_letters

    def skewed(letters, n, pos):
        out, end = removal(letters, n, pos)
        if pos == 2 and letters[0] == sigma(1):
            out = out + [zeta()]
        return out, end

    monkeypatch.setattr(relcheck, "strand_removal_letters", skewed)
    cpb2 = GroupId("CPB", 2)
    left, _ = skewed([sigma(1), sigma(2), sigma(1)], 3, 2)
    right, _ = removal([sigma(2), sigma(1), sigma(2)], 3, 2)
    want = [mat_to_text(rep.word_image(Word(cpb2, tuple(w)), rep.RHO))
            for w in (left, right)]
    assert want[0] != want[1]
    assert failures_of(capsys, "--cocycle", "--n", "3", "--k", "1", "--d",
                       "1", "--pairs", "0") == [
        {"label": "braid s1 s2 from position 2", "left": "s1 s2 s1",
         "right": "s2 s1 s2", "leftMatrix": want[0] + "\nend=2",
         "rightMatrix": want[1] + "\nend=2"}]


def test_check_oracle_fails_with_flipped_reading(capsys, monkeypatch):
    read = geom.power_map_extract
    monkeypatch.setattr(geom, "power_map_extract",
                        lambda *args: invert(read(*args)))
    code, out, _ = run(capsys, "check", "--oracle", "--n", "4", "--k", "1",
                       "--d", "1", "--count", "2", "--factors", "1")
    assert code == 1
    assert "FAIL" in out
    (failure,) = failures_of(capsys, "--oracle", "--n", "4", "--k", "1",
                             "--d", "1", "--count", "1", "--factors", "1")
    cfg = homs.PipelineConfig(4, 1, 1)
    word = parse_word(failure["left"], GroupId("B", 4))
    extracted = geom.power_map_extract(geom.artin_dynamics(word), 1, 1)
    assert failure == {
        "label": "oracle k=1 d=1", "left": failure["left"],
        "right": format_word(extracted),
        "leftMatrix": mat_to_text(rep.word_image(extracted, rep.RHO)),
        "rightMatrix": mat_to_text(homs.pipeline_matrix(word, cfg))}
    assert failure["leftMatrix"] != failure["rightMatrix"]


def test_check_flat_braid_needs_fvb(capsys):
    code, out, _ = run(capsys, "check", "--rep", "rho-tilde", "--group", "FVB3",
                       "--flat-braid")
    assert code == 0 and "PASS" in out
    for rep_id, group in (("rho", "B3"), ("rho", "CPB3"), ("rho", "VCB3")):
        code, out, err = run(capsys, "check", "--rep", rep_id, "--group",
                             group, "--flat-braid")
        assert code == 2 and out == ""
        assert "flat_braid_relation only applies to FVB" in err


def test_geom_extraction_matches_rep(capsys):
    code, out, _ = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                       "--project-pk", "2", "--emit-matrix",
                       "--eval", "t=-1,s=1")
    assert code == 0
    lines = out.splitlines()
    assert "CPB3" in lines[1]
    code2, out2, _ = run(capsys, "rep", lines[0], "--group", "CPB3",
                         "--rep", "rho", "--eval", "t=-1,s=1")
    assert code2 == 0
    assert out2.splitlines() == lines[2:]


def test_geom_emit_braid_and_events(capsys, tmp_path):
    code, out, _ = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                       "--emit-braid")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["pure"]
    path = tmp_path / "braid.json"
    path.write_text(out)
    code, out, _ = run(capsys, "geom", "--in", str(path), "--project-pk", "2",
                       "--emit-events")
    assert code == 0
    events, end = json.JSONDecoder().raw_decode(out)
    assert all("t" in e and "kind" in e for e in events)
    assert "CPB3" in out[end:]  # projected word follows the event list


def test_geom_summary_recomputes_pure(capsys, tmp_path):
    code, out, _ = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                       "--emit-braid")
    data = json.loads(out)
    del data["pure"]
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "geom", "--in", str(path))
    assert code == 0
    assert out.strip().endswith("pure: True")


def test_geom_pair_events_precede_word(capsys):
    code, out, _ = run(capsys, "geom", "--synth", "comm(A[1,3]; A[2,4])",
                       "--group", "B4", "--psi", "1", "3", "--emit-events")
    assert code == 0
    events, end = json.JSONDecoder().raw_decode(out)
    assert events and all({"t", "pair", "class", "ne"} <= set(e)
                          for e in events)
    assert out[end:].strip().endswith("group: FVB2")


@pytest.mark.parametrize("argv,word,group", (
    (("--synth", "A[1,3]", "--group", "B4", "--project-pk", "2"),
     "s2^-1 s1^2 s2", "CPB3"),
    (("--synth", "comm(A[1,3]; A[2,4])", "--group", "B4", "--psi", "1", "3"),
     "p1 s1^-2 p1 s1^-2 p1 s1^2 p1 s1^2", "FVB2"),
))
def test_geom_readme_examples(capsys, argv, word, group):
    code, out, err = run(capsys, "geom", *argv)
    assert code == 0 and err == ""
    assert out.splitlines() == [word, f"group: {group}"]


def test_geom_refine_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geom", "--synth", "comm(A[1,3]; A[2,4])", "--group", "B4",
              "--psi", "1", "3", "--refine", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --refine 4" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ("geom", "--synth", "A[1,3]", "--group", "B4", "--project-pk", "2",
     "--cw"),
    ("geom", "--synth", "A[1,3]", "--group", "B4", "--project-pk", "2",
     "--over-nearer"),
    ("check", "--oracle", "--count", "1", "--over-nearer")))
def test_reading_conventions_are_not_options(capsys, argv):
    """A positive crossing turns counter-clockwise and the farther strand
    passes over; neither can be switched."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


def test_geom_svg(capsys, tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                       "--project-pk", "2", "--svg", str(target))
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_geom_reads_cylinder_events_once(capsys, tmp_path, monkeypatch):
    from braidrep import geom
    calls = []
    inner = geom.cylinder_events

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(geom, "cylinder_events", counted)
    target = tmp_path / "out.svg"
    code, out, _ = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                       "--project-pk", "2", "--emit-events",
                       "--svg", str(target))
    assert code == 0 and len(calls) == 1
    events, _ = json.JSONDecoder().raw_decode(out)
    assert events and target.read_text().count("<circle") == len(events)


@pytest.mark.parametrize("argv", (
    ("--oracle", "--count", "-3"), ("--oracle", "--factors", "-1"),
    ("--cocycle", "--pairs", "-2")))
def test_check_refuses_negative_counts(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[1]} must not be negative\n"


def test_check_needs_exactly_one_mode(capsys):
    for argv in ((), ("--cocycle", "--oracle"), ("--rep", "rho", "--cocycle")):
        with pytest.raises(SystemExit) as exc:
            main(["check", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    code, out, err = run(capsys, "check", "--rep", "rho")
    assert code == 2 and out == ""
    assert "error: --rep needs --group" in err


@pytest.mark.parametrize("argv,message", (
    (("--cocycle", "--n", "3", "--group", "VCB9", "--flat-braid"),
     "--group needs --rep"),
    (("--cocycle", "--n", "3", "--flat-braid"), "--flat-braid needs --rep"),
    (("--rep", "rho", "--group", "B3", "--n", "7", "--count", "5"),
     "--n needs --cocycle or --oracle"),
    (("--rep", "rho", "--group", "B3", "--d", "2"),
     "--d needs --cocycle or --oracle"),
    (("--rep", "rho", "--group", "B3", "--seed", "0"),
     "--seed needs --cocycle or --oracle"),
    (("--oracle", "--n", "4", "--pairs", "2"), "--pairs needs --cocycle"),
    (("--cocycle", "--n", "3", "--count", "1"), "--count needs --oracle"),
    (("--cocycle", "--n", "3", "--factors", "1"), "--factors needs --oracle"),
))
def test_check_refuses_options_of_another_mode(capsys, argv, message):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2 and out == ""
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("extra,message", (
    (("--spread", "nan"), "finite"),
    (("--cut-angle", "nan"), "cut angle must be finite"),
    (("--cut-angle", "inf"), "cut angle must be finite"),
    (("--segments", "0"), "segments per crossing"),
    (("--segments", "-2"), "segments per crossing"),
    (("--resample", "0"), "factor"),
    (("--resample", "-3"), "factor"),
))
def test_geom_refuses_what_cannot_be_a_braid(capsys, extra, message):
    code, out, err = run(capsys, "geom", "--synth", "A[1,2]", "--n", "3",
                         "--project-pk", "1", *extra)
    assert code == 2 and out == ""
    assert "error:" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("extra", (("--psi", "1", "3", "--cut-angle", "1.5"),
                                   ("--cut-angle", "nan"),
                                   ("--linking", "--cut-angle", "0")))
def test_geom_refuses_a_cut_angle_without_a_cylinder_reading(capsys, extra):
    code, out, err = run(capsys, "geom", "--synth", "comm(A[1,3]; A[2,4])",
                         "--group", "B4", *extra)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "--cut-angle needs --project-pk or --power-map" in err


def test_cylinder_reading_is_defined_for_any_braid_and_p_k_only_on_pure(
        capsys):
    """The cylinder reading is the translation from strand k's start
    position (acceptance test 6 reads single crossings), so a braid that is
    not pure reads; the algebraic p_k needs a pure word and exits 3."""
    code, out, _ = run(capsys, "geom", "--synth", "s1", "--group", "B4",
                       "--project-pk", "3")
    assert code == 0 and out.splitlines() == ["s1", "group: CPB3"]
    code, out, err = run(capsys, "map", "s1", "--group", "B4", "--pk", "3")
    assert code == 3 and out == "" and "not pure" in err


def test_geom_in_refuses_non_finite_points(capsys, tmp_path):
    code, out, _ = run(capsys, "geom", "--synth", "A[1,2]", "--n", "3",
                       "--emit-braid")
    data = json.loads(out)
    data["strands"][0][2][1] = float("nan")
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "geom", "--in", str(path), "--project-pk", "1")
    assert code == 2 and out == ""
    assert "error:" in err and "finite" in err


def test_geom_in_refuses_points_too_large_for_floats(capsys, tmp_path):
    # scaling by 2^1022 is exact and keeps every point finite, but not the
    # float arithmetic of the checks and readings
    code, out, _ = run(capsys, "geom", "--synth", "comm(A[1,3]; A[2,4])",
                       "--group", "B4", "--emit-braid")
    data = json.loads(out)
    data["strands"] = [[[t, math.ldexp(x, 1022), math.ldexp(y, 1022)]
                        for t, x, y in bps] for bps in data["strands"]]
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "geom", "--in", str(path), "--project-pk", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "too large for float arithmetic" in err


def test_error_classes_carry_their_exit_codes():
    from braidrep import errors
    codes = {name: cls.exit_code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, Exception)}
    assert codes == {
        "BraidrepError": 2, "WordSyntaxError": 2, "UnknownMacro": 2,
        "IndexOutOfRange": 2, "KindNotInGroup": 2, "ZeroAssignment": 2,
        "DimMismatch": 2, "IncompatibleRepGroup": 2, "NotPure": 3,
        "NonIntegerWinding": 3, "NonGenericInput": 4,
        "SeparationViolated": 4, "PunctureCollision": 4, "NonZeroLinking": 5}


def test_exit_code_syntax_error(capsys):
    code, _, err = run(capsys, "parse", "s1^", "--group", "B4")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "parse", "s9", "--group", "B4")
    assert code == 2
    code, _, err = run(capsys, "rep", "s1", "--group", "B4",
                       "--rep", "rho-tilde")
    assert code == 2  # incompatible representation


@pytest.mark.parametrize("argv,message", (
    (("geom", "--synth", "comm(A[1,3]; A[2,4])", "--group", "B4",
      "--power-map", "1", "--d", "0"), "d must be positive"),
    (("geom", "--synth", "A[1,2]", "--n", "3", "--psi", "1", "2"),
     "need at least 4 strands"),
    (("geom", "--synth", "comm(A[1,3]; A[2,4])", "--group", "B4", "--psi",
      "1", "1"), "bad pair (1,1)"),
    (("geom", "--power-map", "1"), "pass --synth WORD or --in FILE"),
    (("map", "z", "--group", "CPB3", "--fd", "0"), "d must be positive"),
    (("map", "s1", "--group", "B3"), "nothing to do: pass --pk and/or --fd"),
    (("rep", "s1", "--group", "B3", "--rep", "burau-unreduced", "--eval",
      "t=2"), "assignment must bind at least t and s"),
    (("parse", "s1 s2)", "--group", "B3"),
     "expected a generator, group or macro, got ')'"),
    (("geom", "--synth", "s1", "--group", "B2", "--project-pk", "1"),
     "need at least 3 strands"),
    (("geom", "--synth", "comm(A[1,3]; A[2,4])", "--group", "B4", "--psi",
      "1", "3", "--psi-d", "2000000000"),
     f"power readings need 2 <= d <= {MAX_LETTERS}"),
    (("parse", "s1 $", "--group", "B2"), "unexpected character '$' at 3"),
    (("map", "z", "--group", "CPB3", "--pk", "1"),
     "strand removal expects a braid word (family B)"),
    (("map", "s1^2", "--group", "B3", "--fd", "2"),
     "rotation power expects a cylinder word (family CPB)"),
))
def test_refusals_exit_as_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


B4_WORD = parse_word("comm(A[1,3]; A[2,4])", GroupId("B", 4))


@pytest.mark.parametrize("call,message", (
    (lambda: geom.q_kl(geom.artin_dynamics(parse_word("A[1,2]",
                                                      GroupId("B", 3))), 1, 2),
     "need at least 4 strands"),
    (lambda: geom.q_kl(geom.artin_dynamics(B4_WORD), 2, 2), "bad pair (2,2)"),
    (lambda: geom.concat(geom.artin_dynamics(B4_WORD), geom.artin_dynamics(
        parse_word("A[1,2]", GroupId("B", 3)))), "strand counts differ"),
    (lambda: geom.psi_events(geom.artin_dynamics(B4_WORD), method="x"),
     "unknown method 'x'"),
    (lambda: homs.f_d(Word(GroupId("CPB", 3), (zeta(),)), 0),
     "d must be positive"),
    (lambda: homs.pipeline_word(B4_WORD, homs.PipelineConfig(5, 1)),
     "word has 4 strands, config expects 5"),
    (lambda: parse_word("s1", GroupId("B", 3), comm_convention="x"),
     "unknown comm convention 'x'"),
    (lambda: geom.psi_d_events(geom.artin_dynamics(B4_WORD), 1),
     f"power readings need 2 <= d <= {MAX_LETTERS}"),
))
def test_library_refusals_are_usage_errors(call, message):
    # main turns an error without an exit_code of its own into exit 2
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert getattr(info.value, "exit_code", 2) == 2


def test_power_reading_refuses_d_past_the_letter_cap_before_any_ray(
        monkeypatch):
    """d = MAX_LETTERS reaches the rays of the reading; one more, or a d
    whose rays would not fit in memory, is refused before any is built."""
    class RaysBuilt(Exception):
        pass

    def rays(d):
        raise RaysBuilt(d)

    monkeypatch.setattr(geom, "_ray_lines", rays)
    view = geom.q_kl(geom.artin_dynamics(B4_WORD), 1, 3)
    with pytest.raises(RaysBuilt):
        geom.psi_d_events(view, MAX_LETTERS)
    for d in (MAX_LETTERS + 1, 2_000_000_000, 10 ** 30):
        with pytest.raises(ValueError, match=r"need 2 <= d <= "):
            geom.psi_d_events(view, d)


def test_pair_reading_refuses_a_realized_word_past_the_letter_cap(
        capsys, monkeypatch):
    """A d-th pair reading spells about 8 letters per unit of d here: under
    a cap of 400 letters d = 64 is refused as a usage error with nothing on
    stdout, and under the real cap it reads."""
    argv = ("geom", "--synth", "comm(A[1,3]; A[2,4])", "--group", "B4",
            "--psi", "1", "3", "--psi-d", "64")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("group: FVB2\n")
    monkeypatch.setattr(geom, "MAX_LETTERS", 400)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: realized word would have more than 400 letters\n"


def test_exit_code_purity(capsys):
    code, _, err = run(capsys, "map", "s1", "--group", "B4", "--pk", "1")
    assert code == 3


@pytest.mark.parametrize("reading", (
    ("--psi", "1", "2"), ("--project-pk", "1"), ("--project-pk", "2"),
    ("--project-pk", "3"), ("--project-pk", "4")))
def test_far_excursion_exits_as_non_generic(capsys, tmp_path, reading):
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(braid_to_json(FAR_EXCURSION)))
    code, out, err = run(capsys, "geom", "--in", str(path), *reading)
    assert code == 4 and out == "" and err.startswith("error:")


def test_pair_that_does_not_close_exits_as_non_integer_winding(capsys,
                                                               tmp_path):
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(braid_to_json(NOT_CLOSING)))
    code, out, err = run(capsys, "geom", "--in", str(path), "--psi", "1", "2")
    assert code == 3 and out == ""
    assert err.startswith("error:") and "does not return" in err


def test_exit_code_nonzero_linking(capsys):
    code, _, err = run(capsys, "geom", "--synth", "A[1,2]", "--group", "B4",
                       "--psi", "3", "4")
    assert code == 5


def test_loop_between_breakpoints_closer_than_1e_13_exits_as_nonzero_linking(
        capsys, tmp_path):
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(braid_to_json(LOOP)))
    code, out, err = run(capsys, "geom", "--in", str(path), "--linking",
                         "--psi", "2", "4")
    assert code == 5 and out == ""
    assert err == "error: winding must vanish for pair (1, 3)\n"


def test_exit_code_genericity(capsys):
    code, _, err = run(capsys, "geom", "--synth", "A[1,2]", "--group", "B4",
                       "--perturb", "0.5")
    assert code == 4


def test_eval_argument_validation(capsys):
    code, _, err = run(capsys, "rep", "s1", "--group", "B5",
                       "--rep", "burau-reduced", "--eval", "t=0,s=1")
    assert code == 2
    code, _, err = run(capsys, "rep", "s1", "--group", "B5",
                       "--rep", "burau-reduced", "--eval", "q=3")
    assert code == 2


def test_eval_zero_denominator_is_a_usage_error(capsys):
    code, out, err = run(capsys, "rep", "s1", "--group", "B3",
                         "--rep", "burau-unreduced", "--eval", "t=1/0")
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_parse_deep_nesting_is_a_usage_error(capsys):
    code, _, err = run(capsys, "parse", "(" * 3000 + "s1" + ")" * 3000,
                       "--group", "B4")
    assert code == 2 and "nesting" in err


@pytest.mark.parametrize("argv", (
    ("parse", "(s1 s2)^1000000000", "--group", "B3"),
    ("parse", "s1", "--group", "B1000000000"),
    ("rep", "s1", "--group", "B1000000000", "--rep", "rho"),
    ("check", "--cocycle", "--n", "1000000000"),
    ("check", "--oracle", "--n", "1000000000"),
    ("geom", "--synth", "s1", "--n", "1000000000"),
    ("geom", "--synth", "s1^1000000000000", "--group", "B3"),
    ("geom", "--synth", "s1", "--group", "B3", "--segments", "1000000000"),
    ("geom", "--synth", "s1", "--group", "B3", "--resample", "1000000000"),
    ("map", "z^2000000000", "--group", "CPB3", "--fd", "2"),
    ("map", "z^400000", "--group", "CPB3", "--fd", "2"),
    ("map", "s1^2000000000", "--group", "B3", "--pk", "1")))
def test_oversized_input_is_a_usage_error(capsys, argv):
    # refused before any letter list, point list or n x n matrix is built
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_geom_readings_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geom", "--synth", "comm(A[1,3]; A[2,4])", "--group", "B4",
              "--project-pk", "2", "--psi", "1", "3"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["geom", "--synth", "A[1,3]", "--group", "B4",
              "--project-pk", "2", "--power-map", "2"])
    assert exc.value.code == 2


def _modifier_without_reading(capsys, *extra):
    code, out, err = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                         *extra)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err
    return err


def test_geom_psi_d_needs_psi(capsys):
    assert "--psi-d needs --psi" in _modifier_without_reading(
        capsys, "--psi-d", "3")
    assert "--psi-d" in _modifier_without_reading(
        capsys, "--project-pk", "2", "--psi-d", "3")


def test_geom_d_needs_power_map(capsys):
    assert "--d needs --power-map" in _modifier_without_reading(
        capsys, "--d", "2")
    assert "--d" in _modifier_without_reading(
        capsys, "--psi", "1", "3", "--d", "2")


def test_geom_emit_matrix_needs_reading(capsys):
    assert "--emit-matrix needs" in _modifier_without_reading(
        capsys, "--emit-matrix")
    assert "--emit-matrix needs" in _modifier_without_reading(
        capsys, "--emit-matrix", "--eval", "t=2")


def test_geom_emit_events_needs_reading(capsys):
    assert "--emit-events needs --project-pk or --power-map or --psi" in \
        _modifier_without_reading(capsys, "--linking", "--emit-events")


def test_geom_eval_needs_emit_matrix(capsys):
    assert "--eval needs --emit-matrix" in _modifier_without_reading(
        capsys, "--eval", "t=2,s=1")
    assert "--eval needs --emit-matrix" in _modifier_without_reading(
        capsys, "--project-pk", "2", "--eval", "t=2,s=1")


def test_rep_rational_eval(capsys):
    code, out, _ = run(capsys, "rep", "s1", "--group", "B5",
                       "--rep", "burau-unreduced", "--eval", "t=1/2,s=1")
    assert code == 0
    assert out.splitlines()[0] == "1/2,1/2,0,0,0"


def _fraction_product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def _burau_power(k):
    """The burau-unreduced block of s1 at t=2/3 to the k-th power, by
    squaring: [[1 - t, t], [1, 0]]^k."""
    t = Fraction(2, 3)
    block, out = ((1 - t, t), (Fraction(1), Fraction(0))), ((1, 0), (0, 1))
    while k:
        if k & 1:
            out = _fraction_product(out, block)
        block, k = _fraction_product(block, block), k >> 1
    return out


@pytest.mark.parametrize("word,group,as_json", (
    ("s1^20000", "B2", False), ("s1^20000", "B2", True),
    ("s2^20000", "B3", False)))
def test_exact_values_past_the_int_to_str_limit_print_in_full(
        capsys, word, group, as_json):
    """Entries of about 31,700 bits, some 9,500 digits, past the 4300 digits
    that CPython (3.10.7 and later) converts by default: every digit prints,
    with exit 0, and the limit is back in place afterwards. The image takes
    about 0.33 s on a shared 2-CPU host; each call must end within 5 s."""
    block = _burau_power(20000)
    rows = block if group == "B2" else ((1, 0, 0), (0, *block[0]),
                                        (0, *block[1]))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert max(len(str(x.numerator)) for x in block[0]) > 9000
        text = [[str(x) for x in row] for row in rows]
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    argv = ["rep", word, "--group", group, "--rep", "burau-unreduced",
            "--eval", "t=2/3,s=1"] + ["--json"] * as_json
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 5.0
    assert (code, err) == (0, "")
    assert out == (json.dumps(text, indent=2) if as_json else
                   "\n".join(",".join(row) for row in text)) + "\n"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """main parses every call with the parser its first call built; each of
    these calls in one process prints and exits as it does in a fresh
    one."""
    src = str(Path(braidrep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    evaluated = ("rep", "s1 s2^-1 s1", "--group", "B3", "--rep",
                 "burau-unreduced", "--eval", "t=2/3,s=1")
    calls = [("rep", "s1", "--group", "B3", "--rep", "rho", "--bogus"),
             evaluated + ("--json",), evaluated,
             ("check", "--rep", "rho", "--group", "B3"),
             ("geom", "--synth", "comm(A[1,3]; A[2,4])", "--group", "B4",
              "--psi", "1", "3")]
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        for i, argv in enumerate(calls):
            try:
                code = main(list(argv))
            except SystemExit as exc:     # argparse refusals
                code = exc.code
            out = capsys.readouterr().out
            if i == 0:
                assert code == 2 and built
                first = len(built)
            fresh = subprocess.run(
                [sys.executable, "-m", "braidrep", *argv],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": path})
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
        assert len(built) == first
    finally:
        cli.build_parser.cache_clear()


@pytest.mark.parametrize("extra,message", (
    (("--rep", "rho", "--k", "2"), "--k needs --pipeline"),
    (("--rep", "rho", "--d", "2"), "--d needs --pipeline")))
def test_rep_pipeline_options_need_pipeline(capsys, extra, message):
    code, out, err = run(capsys, "rep", "s1", "--group", "B3", *extra)
    assert code == 2 and out == ""
    assert f"error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("target", (
    (), ("--pipeline", "pk-fd", "--rep", "burau-reduced")))
def test_rep_needs_exactly_one_of_rep_and_pipeline(capsys, target):
    with pytest.raises(SystemExit) as exc:
        main(["rep", "s1^2", "--group", "B3", *target, "--eval", "t=-1,s=1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--rep" in err and "--pipeline" in err and "Traceback" not in err


@pytest.mark.parametrize("extra,message", (
    (("--project-pk", "2", "--scheme", "swap-in-place"),
     "--scheme needs --psi"),
    (("--project-pk", "2", "--seed", "3"), "--seed needs --perturb")))
def test_geom_scheme_and_seed_need_their_modes(capsys, extra, message):
    assert f"error: {message}" in _modifier_without_reading(capsys, *extra)


@pytest.mark.parametrize("magnitude", ("-0.3", "nan"))
def test_geom_negative_or_nan_perturbation_is_a_usage_error(capsys,
                                                            magnitude):
    code, out, err = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                         "--perturb", magnitude, "--project-pk", "2")
    assert code == 2 and out == ""
    assert "must be non-negative" in err and "Traceback" not in err


def test_geom_svg_marks_power_map_events(capsys, tmp_path):
    counts = []
    for reading in ("--project-pk", "--power-map"):
        target = tmp_path / "out.svg"
        code, _, _ = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                         reading, "2", "--svg", str(target))
        assert code == 0
        counts.append(target.read_text().count("<circle"))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_geom_svg_marks_pair_events_on_braid_strands(capsys, tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run(capsys, "geom", "--synth", "comm(A[1,3]; A[2,4])",
                       "--group", "B4", "--psi", "1", "3", "--emit-events",
                       "--emit-braid", "--svg", str(target))
    assert code == 0
    events, _ = json.JSONDecoder().raw_decode(out)
    braid = braid_from_json(json.loads(out.splitlines()[-2]))
    svg = target.read_text()
    assert len(events) == 12 and svg.count("<circle") == len(events)
    # view strands 1 and 2 are braid strands 2 and 4: each mark sits midway
    xs = [z.real for bps in braid.strands for _, z in bps]
    for event in events:
        x = (braid.at(2, event["t"]).real + braid.at(4, event["t"]).real) / 2
        cx = 40.0 + (x - min(xs)) / (max(xs) - min(xs)) * 560.0
        assert f'<circle cx="{cx:.2f}"' in svg


def test_geom_svg_marks_a_cut_event_on_its_strand(capsys, tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run(capsys, "geom", "--synth", "A[1,3]", "--group", "B4",
                       "--project-pk", "1", "--emit-events", "--emit-braid",
                       "--svg", str(target))
    assert code == 0
    events, _ = json.JSONDecoder().raw_decode(out)
    braid = braid_from_json(json.loads(out.splitlines()[-2]))
    svg = target.read_text()
    assert svg.count("<circle") == len(events)
    cuts = [e for e in events if e["kind"] == "cut"]
    assert len(cuts) == 1
    xs = [z.real for bps in braid.strands for _, z in bps]
    x = braid.at(cuts[0]["strand"], cuts[0]["t"]).real
    cx = 40.0 + (x - min(xs)) / (max(xs) - min(xs)) * 560.0
    assert f'<circle cx="{cx:.2f}"' in svg


def test_python_m_braidrep_runs_the_cli():
    src = str(Path(braidrep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "braidrep", "parse", "s1", "--group", "B3"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "s1"
