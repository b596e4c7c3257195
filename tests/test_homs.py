import hashlib
import random
from fractions import Fraction

import pytest

from braidrep import homs
from braidrep.braidword import (GroupId, Word, format_word,
                                free_reduce_letters, invert, parse_word,
                                random_pure_word, sigma, zeta)
from braidrep.errors import NotPure
from braidrep.homs import (PipelineConfig, f_d, p_k, pipeline_matrix,
                           pipeline_word, rotation_block_letters,
                           strand_removal_letters)
from braidrep.laurent import Assignment, mat_mul, mat_to_text
from braidrep.rep import (BURAU_REDUCED, BURAU_UNREDUCED, RHO, RHO_TILDE,
                          word_image)

B3 = GroupId("B", 3)
B5 = GroupId("B", 5)


def test_strand_removal_frozen_small_cases():
    # removing the last strand of B3: s2 acts on the watched strand
    out, pos = strand_removal_letters(parse_word("s2 s2", B3).expanded(), 3, 3)
    assert [(l.kind, l.index, l.power) for l in out] == \
        [("z", None, -1), ("s", 1, -1)]
    assert pos == 3
    # removing strand 1: s1^2 pushes the watcher away and back
    out, pos = strand_removal_letters(parse_word("s1^2", B3).expanded(), 3, 1)
    assert [(l.kind, l.index, l.power) for l in out] == \
        [("s", 1, -1), ("z", None, -1)]
    assert pos == 1
    # a far letter keeps its slot relative to the watcher
    out, pos = strand_removal_letters(parse_word("s1", B3).expanded(), 3, 3)
    assert [(l.kind, l.index, l.power) for l in out] == [("s", 1, 1)]
    assert pos == 3


def test_far_slots_always_interior():
    rng = random.Random(21)
    for n in (4, 5, 6):
        for _ in range(30):
            w = random_pure_word(n, rng, factors=2)
            for k in range(1, n + 1):
                out, pos = strand_removal_letters(w.expanded(), n, k)
                assert pos == k
                for l in out:
                    if l.kind == "s":
                        assert 1 <= l.index <= n - 2


def test_p_k_requires_pure():
    with pytest.raises(NotPure):
        p_k(parse_word("s1", B3), 2)
    w = p_k(parse_word("A[1,3]", B3), 2)
    assert w.group == GroupId("CPB", 2)


def test_p_k_nonpure_with_tracked_position():
    out, pos = strand_removal_letters(parse_word("s2", B3).expanded(), 3, 3)
    assert pos == 2
    out2, pos2 = strand_removal_letters(parse_word("s2", B3).expanded(), 3,
                                        start_pos=pos)
    assert pos2 == 3
    # the same composite through the pure word in one pass
    whole, pos3 = strand_removal_letters(parse_word("s2 s2", B3).expanded(),
                                         3, 3)
    assert pos3 == 3
    assert [(l.kind, l.index, l.power) for l in out + out2] == \
        [(l.kind, l.index, l.power) for l in whole]


def test_cocycle_split_matches_whole():
    rng = random.Random(8)
    for n in (4, 5):
        for _ in range(20):
            u = random_pure_word(n, rng, factors=1)
            v = random_pure_word(n, rng, factors=1)
            k = rng.randrange(1, n + 1)
            left, p1 = strand_removal_letters(u.expanded(), n, k)
            right, p2 = strand_removal_letters(v.expanded(), n, start_pos=p1)
            whole, p3 = strand_removal_letters((u * v).expanded(), n, k)
            assert p2 == p3 == k
            lhs = word_image(Word(GroupId("CPB", n - 1),
                                  tuple(left + right)), RHO)
            rhs = word_image(Word(GroupId("CPB", n - 1), tuple(whole)), RHO)
            assert lhs == rhs


def test_power_substitution_frozen_blocks():
    assert [(l.kind, l.index, l.power) for l in rotation_block_letters(4, 1, 1)] \
        == [("z", None, 1)]
    assert [(l.kind, l.index, l.power) for l in rotation_block_letters(4, 2, 1)] \
        == [("z", None, 1), ("t", 1, 1), ("t", 2, 1), ("t", 3, 1),
            ("z", None, 1)]
    fwd = rotation_block_letters(3, 3, 1)
    bwd = rotation_block_letters(3, 3, -1)
    assert [(l.kind, l.index, -l.power) for l in reversed(bwd)] == \
        [(l.kind, l.index, l.power) for l in fwd]


def test_f_d_images():
    w = parse_word("z", GroupId("CPB", 4))
    assert format_word(f_d(w, 2)) == "z t1 t2 t3 z"
    assert format_word(f_d(w, 1)) == "z"
    # interior crossings pass through
    w2 = parse_word("s2", GroupId("CPB", 4))
    assert format_word(f_d(w2, 3)) == "s2"
    # the wrap crossing is conjugated into slot 1
    w3 = parse_word("s4", GroupId("CPB", 4))
    img = f_d(w3, 1)
    assert format_word(img) == "z s1 z^-1"
    imgd = f_d(w3, 2)
    assert format_word(imgd).startswith("z t1 t2 t3 z s1")


def test_f_d_multiplicative_on_images():
    rng = random.Random(13)
    g = GroupId("CPB", 3)
    from braidrep.braidword import Letter, free_reduce_letters
    def rand_word():
        letters = []
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.3:
                letters.append(Letter("z", None, rng.choice((-1, 1))))
            else:
                letters.append(Letter("s", rng.randrange(1, 4),
                               rng.choice((-1, 1))))
        return Word(g, free_reduce_letters(letters))
    for d in (1, 2, 3):
        for _ in range(25):
            u, v = rand_word(), rand_word()
            lhs = word_image(f_d(u * v, d), RHO)
            rhs = mat_mul(word_image(f_d(u, d), RHO),
                          word_image(f_d(v, d), RHO))
            assert lhs == rhs


def test_pipeline_word_and_matrix_shape():
    w = random_pure_word(5, random.Random(3), factors=2)
    cfg = PipelineConfig(5, 2, 2)
    pw = pipeline_word(w, cfg)
    assert pw.group == GroupId("VCB", 4)
    m = pipeline_matrix(w, cfg)
    assert m.dim == 4
    # inverse word gives the inverse matrix
    minv = pipeline_matrix(invert(w), cfg)
    from braidrep.laurent import Matrix
    assert mat_mul(m, minv) == Matrix.identity(4)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(2, 1, 1)
    with pytest.raises(ValueError):
        PipelineConfig(5, 6, 1)
    with pytest.raises(ValueError):
        PipelineConfig(5, 1, 0)


def test_d_one_never_emits_virtual_letters():
    rng = random.Random(14)
    for _ in range(20):
        w = random_pure_word(5, rng, factors=2)
        pw = pipeline_word(w, PipelineConfig(5, rng.randrange(1, 6), 1))
        assert all(l.kind != "t" for l in pw.letters)


def test_strand_removal_walks_powers_as_their_units():
    rng = random.Random(22)
    for n in (3, 4, 5):
        for _ in range(20):
            w = random_pure_word(n, rng, factors=3)
            w = w * parse_word(f"s{rng.randrange(1, n)}^{rng.choice((4, -6))}",
                               w.group)
            for k in range(1, n + 1):
                whole, end = strand_removal_letters(w.letters, n, k)
                units, unit_end = strand_removal_letters(w.expanded(), n, k)
                assert end == unit_end == k
                assert free_reduce_letters(whole) == \
                    free_reduce_letters(units)


def test_strand_removal_spells_any_power_as_its_units():
    # odd powers too, which leave the strand one position over
    rng = random.Random(23)
    for n in (2, 3, 4, 5):
        for _ in range(50):
            word = Word(GroupId("B", n), tuple(
                sigma(rng.randrange(1, n), rng.choice((1, -1)) *
                      rng.randrange(1, 8)) for _ in range(4)))
            for k in range(1, n + 1):
                whole, end = strand_removal_letters(word.letters, n, k)
                units, unit_end = strand_removal_letters(word.expanded(), n, k)
                assert end == unit_end
                assert free_reduce_letters(whole) == \
                    free_reduce_letters(units)


def test_word_maps_refuse_images_past_max_letters(monkeypatch):
    cpb3 = GroupId("CPB", 3)
    for word, d in ((Word(cpb3, (zeta(2_000_000_000),)), 2),
                    (Word(cpb3, (sigma(3),)), 10 ** 12)):
        with pytest.raises(ValueError, match="rotation power would write"):
            f_d(word, d)
    with pytest.raises(ValueError, match="strand removal would write"):
        strand_removal_letters((sigma(1, 2_000_000_000),), 3, 1)
    # the cap itself: on CPB3 the d=2 block z t1 t2 z has 4 letters and
    # s3's image 9; on B3 each unit of s1 from position 1 is one letter
    monkeypatch.setattr(homs, "MAX_LETTERS", 64)
    f_d(Word(cpb3, (zeta(16),)), 2)
    f_d(Word(cpb3, (sigma(3), zeta(-13), sigma(1, 2))), 2)
    for letters in ((zeta(16), sigma(1)), (zeta(-17),), (sigma(3, 5), zeta(14))):
        with pytest.raises(ValueError, match="more than 64 letters"):
            f_d(Word(cpb3, letters), 2)
    # for d=1 a z power is one letter and s3's image z s1 z^-1 three
    assert f_d(Word(cpb3, (zeta(1000),)), 1).letters == (zeta(1000),)
    f_d(Word(cpb3, (zeta(-1000),) + (sigma(3),) * 21), 1)
    with pytest.raises(ValueError, match="more than 64 letters"):
        f_d(Word(cpb3, (zeta(-1000),) + (sigma(3),) * 21 + (sigma(1),)), 1)
    assert len(strand_removal_letters((sigma(1, 64),), 3, 1)[0]) == 64
    assert len(strand_removal_letters((sigma(2), sigma(1, -63)), 3, 1)[0]) \
        == 64
    for letters in ((sigma(1, 65),), (sigma(2), sigma(1, -64))):
        with pytest.raises(ValueError, match="more than 64 letters"):
            strand_removal_letters(letters, 3, 1)


def test_d_one_keeps_a_z_power_whole():
    # the d=1 block is the one letter z: the image is the unit-by-unit
    # spelling, each z unit its block and s_m z s1 z^-1, free-reduced
    rng = random.Random(29)
    for m in (2, 3, 4):
        fwd, back = rotation_block_letters(m, 1, 1), \
            rotation_block_letters(m, 1, -1)
        for _ in range(50):
            word = Word(GroupId("CPB", m), tuple(
                zeta(rng.choice((1, -1)) * rng.randrange(1, 9))
                if rng.random() < 0.4 else
                sigma(rng.randrange(1, m + 1),
                      rng.choice((1, -1)) * rng.randrange(1, 4))
                for _ in range(6)))
            units = []
            for letter in word.expanded():
                if letter.kind == "z":
                    units += fwd if letter.power > 0 else back
                elif letter.index < m:
                    units.append(letter)
                else:
                    units += (*fwd, sigma(1, letter.power), *back)
            assert f_d(word, 1).letters == free_reduce_letters(units)


def test_rotation_blocks_are_shared_inverse_tuples():
    for m in (2, 3, 5):
        for d in (1, 2, 3, 4):
            fwd = rotation_block_letters(m, d, 1)
            want = tuple(l.inverse() for l in reversed(fwd))
            f_d(parse_word("z^-2 s1 z^3", GroupId("CPB", m)), d)
            assert rotation_block_letters(m, d, -1) == want
            assert rotation_block_letters(m, d, 1) is fwd
            assert len(fwd) == 1 + d * m - m


# -- seeded pipeline battery -------------------------------------------------

BATTERY_POINTS = tuple(Assignment(Fraction(t), Fraction(s)) for t, s in (
    ("-1", "1"), ("2/3", "1"), ("-3/2", "2"), ("1/2", "-1/3"), ("3", "-2"),
    ("-2/3", "3/2")))
# SHA-256 of pipeline_battery()'s 864 lines, recorded before letters were
# shared and evaluated actions kept across calls
BATTERY_DIGEST = \
    "837868b279e790176feb18c160781225ffaf5df2d39a258eb2e33c14b4d78b75"


def _rows_text(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _battery_word(rng, n: int, factors: int) -> str:
    def band():
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        return f"A[{i},{j}]" + rng.choice(("", "^-1", "^2", "^-3"))

    def factor():
        r = rng.random()
        if r < 0.3:
            return band()
        if r < 0.5:
            return f"s{rng.randrange(1, n)}^{rng.choice((2, -2, 4, -6))}"
        if r < 0.75:
            return f"comm({band()}; {band()})"
        return f"({band()} {band()})^{rng.choice((2, 3, -2))}"
    return " ".join(factor() for _ in range(factors))


def pipeline_battery() -> str:
    """Pure words on 4-6 strands, parsed, through p_k and f_d, with their
    Burau, cylinder and rotation-virtual images at several points (and
    symbolic for short words); flat-virtual words under rho-tilde."""
    rng = random.Random(2024)
    lines = []
    for n in (4, 5, 6):
        for idx in range(20):
            symbolic = idx < 3
            text = _battery_word(rng, n, 2 if symbolic else 6)
            word = parse_word(text, GroupId("B", n))
            lines.append(f"{text} -> {format_word(word)}")
            for rep_id in (BURAU_UNREDUCED, BURAU_REDUCED):
                lines.append(_rows_text(word_image(
                    word, rep_id, rng.choice(BATTERY_POINTS))))
            k, d = rng.randrange(1, n + 1), rng.randrange(1, 4)
            cyl = p_k(word, k)
            vir = f_d(cyl, d)
            lines += [format_word(cyl), format_word(vir)]
            if symbolic:
                lines.append(mat_to_text(word_image(vir, RHO)))
            for point in rng.sample(BATTERY_POINTS, 4):
                lines.append(_rows_text(word_image(vir, RHO, point)))
                lines.append(_rows_text(word_image(cyl, RHO, point)))
        for _ in range(8):
            text = " ".join(f"{rng.choice('spt')}{rng.randrange(1, n)}"
                            f"^{rng.choice((1, -1, 2, 3))}" for _ in range(12))
            word = parse_word(text, GroupId("FVB", n))
            lines.append(f"{text} -> {format_word(word)}")
            lines.append(_rows_text(word_image(
                word, RHO_TILDE, rng.choice(BATTERY_POINTS))))
    return "\n".join(lines)


def test_pipeline_battery_is_pinned_with_cold_and_warm_caches():
    rotation_block_letters.cache_clear()
    cold = pipeline_battery()
    assert rotation_block_letters.cache_info().hits > 0
    warm = pipeline_battery()
    assert warm == cold
    assert len(cold.splitlines()) == 864
    assert hashlib.sha256(cold.encode()).hexdigest() == BATTERY_DIGEST


def test_word_maps_refuse_the_wrong_family():
    with pytest.raises(ValueError, match=r"strand removal expects a braid "
                       r"word \(family B\)"):
        p_k(Word(GroupId("CPB", 3), (zeta(),)), 1)
    with pytest.raises(ValueError, match=r"rotation power expects a cylinder "
                       r"word \(family CPB\)"):
        f_d(parse_word("s1^2", B3), 2)
    with pytest.raises(NotPure, match="unexpected 'z' letter"):
        strand_removal_letters((zeta(),), 3, 1)


@pytest.mark.parametrize("bad", (1.0, True))
@pytest.mark.parametrize("call,what", (
    (lambda x: p_k(parse_word("A[1,3]", B3), x), "k"),
    (lambda x: f_d(parse_word("s2 z", GroupId("CPB", 2)), x), "d"),
    (lambda x: PipelineConfig(x, 1, 2), "n"),
    (lambda x: PipelineConfig(4, x, 2), "k"),
    (lambda x: PipelineConfig(4, 1, x), "d"),
))
def test_map_parameters_must_be_plain_integers(monkeypatch, call, what, bad):
    """A float equal to an int, and a bool, are refused before any work, as
    geom's readings refuse them."""
    def worked(*args):
        raise AssertionError("a refused parameter reached the map")

    for name in ("is_pure", "strand_removal_letters", "rotation_block_letters"):
        monkeypatch.setattr(homs, name, worked)
    with pytest.raises(ValueError, match=f"^{what} {bad!r} is not an "
                       "integer$"):
        call(bad)
