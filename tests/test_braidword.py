import random

import pytest

from braidrep.braidword import (MAX_NESTING, GroupId, Letter, Word,
                                bigelow5, format_word, free_reduce_letters,
                                invert, is_pure, parse_group, parse_word,
                                random_pure_word, random_zero_linking_word,
                                relation_suite, sigma, tau, pi, zeta,
                                underlying_permutation, word_from_json,
                                word_to_json)
from braidrep.errors import (IndexOutOfRange, KindNotInGroup, UnknownMacro,
                             WordSyntaxError)

B4 = GroupId("B", 4)
CPB3 = GroupId("CPB", 3)
VCB4 = GroupId("VCB", 4)
FVB3 = GroupId("FVB", 3)


def test_parse_group():
    g = parse_group("VCB4")
    assert g.family == "VCB" and g.strands == 4
    assert str(g) == "VCB4"
    for bad in ("X4", "B", "CPB1", "b4"):
        with pytest.raises(WordSyntaxError):
            parse_group(bad)


def test_group_kind_gating():
    with pytest.raises(KindNotInGroup):
        parse_word("t1", B4)
    with pytest.raises(KindNotInGroup):
        parse_word("p1", VCB4)
    with pytest.raises(KindNotInGroup):
        parse_word("z", FVB3)
    with pytest.raises(IndexOutOfRange):
        parse_word("s4", B4)
    # cyclic families allow the wrap generator index n
    parse_word("s3", CPB3)
    with pytest.raises(IndexOutOfRange):
        parse_word("s4", CPB3)


def test_parse_format_round_trip_random():
    rng = random.Random(12)
    kinds = {"B": "s", "CPB": "sz", "VCB": "stz", "FVB": "spt"}
    for _ in range(400):
        fam = rng.choice(("B", "CPB", "VCB", "FVB"))
        n = rng.randrange(3, 6)
        g = GroupId(fam, n)
        hi = n if g.cyclic else n - 1
        letters = []
        for _ in range(rng.randrange(1, 8)):
            k = rng.choice(kinds[fam])
            idx = None if k == "z" else rng.randrange(1, hi + 1)
            letters.append(Letter(k, idx, rng.choice((-2, -1, 1, 2, 3))))
        w = Word(g, free_reduce_letters(letters))
        assert parse_word(format_word(w), g) == w


def test_free_reduction_involutive_kinds():
    w = parse_word("t1^5 p2^-3 t1^2", FVB3)
    assert [(l.kind, l.index, l.power) for l in w.letters] == \
        [("t", 1, 1), ("p", 2, 1)]
    # involutive letters reduce mod 2 and cancel pairwise
    assert parse_word("t1 t1", FVB3) == Word.empty(FVB3)
    assert parse_word("p2 p2 p2", FVB3) == parse_word("p2", FVB3)
    assert parse_word("s1 s1^-1", B4) == Word.empty(B4)
    assert parse_word("z z^-1", CPB3) == Word.empty(CPB3)


def test_word_mul_and_invert():
    u = parse_word("s1 s2^2", B4)
    v = parse_word("s2^-2 s3", B4)
    assert format_word(u * v) == "s1 s3"
    assert u * invert(u) == Word.empty(B4)
    assert invert(parse_word("s1 s2", B4)) == parse_word("s2^-1 s1^-1", B4)


def test_parse_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("s1 (s2", B4)
    with pytest.raises(WordSyntaxError):
        parse_word("s1^", B4)
    with pytest.raises(UnknownMacro):
        parse_word("FROB", B4)
    assert parse_word("s1^0", B4) == Word.empty(B4)


def test_nesting_depth_is_bounded():
    def nested(depth):
        return "(" * depth + "s1" + ")" * depth

    assert format_word(parse_word(nested(MAX_NESTING), B4)) == "s1"
    with pytest.raises(WordSyntaxError, match="nesting"):
        parse_word(nested(MAX_NESTING + 1), B4)
    with pytest.raises(WordSyntaxError, match="nesting"):
        parse_word(nested(3000), B4)  # deeper than the interpreter stack
    # comm( opens a level too
    comm = f"comm({nested(MAX_NESTING - 1)}; s3)"
    assert format_word(parse_word(comm, B4)) == "s1 s3 s1^-1 s3^-1"
    with pytest.raises(WordSyntaxError, match="nesting"):
        parse_word(f"comm({nested(MAX_NESTING)}; s3)", B4)


def test_parentheses_and_powers():
    w = parse_word("(s1 s2)^2", B4)
    assert format_word(w) == "s1 s2 s1 s2"
    w = parse_word("(s1 s2)^-1", B4)
    assert format_word(w) == "s2^-1 s1^-1"


def test_comm_macro_conventions():
    direct = parse_word("comm(s1; s3)", B4)
    assert format_word(direct) == "s1 s3 s1^-1 s3^-1"
    inv_first = parse_word("comm(s1; s3)", B4, comm_convention="inverse-first")
    assert format_word(inv_first) == "s1^-1 s3^-1 s1 s3"


def test_band_generator_macro():
    w = parse_word("A[1,3]", B4)
    assert format_word(w) == "s2 s1^2 s2^-1"
    assert is_pure(w)
    assert parse_word("A[2,3]", B4) == parse_word("s2^2", B4)
    with pytest.raises(IndexOutOfRange):
        parse_word("A[3,3]", B4)


def test_delta_macros():
    assert format_word(parse_word("Dc", CPB3)) == "s1 s2"
    assert format_word(parse_word("Dv", VCB4)) == "t1 t2 t3"


def test_bigelow5_word():
    w = bigelow5()
    assert w.group == GroupId("B", 5)
    assert is_pure(w)
    assert len(w.expanded()) == 118
    assert parse_word("BIGELOW5", GroupId("B", 5)) == w
    with pytest.raises(KindNotInGroup):
        parse_word("BIGELOW5", B4)


def test_underlying_permutation():
    assert underlying_permutation(parse_word("s1", B4)) == (2, 1, 3, 4)
    # entry i is the final position of strand i
    assert underlying_permutation(parse_word("s1 s2 s3", B4)) == (4, 1, 2, 3)
    # z shifts every strand by one slot
    assert underlying_permutation(parse_word("z", CPB3)) == (2, 3, 1)
    assert underlying_permutation(parse_word("z^-1 s3 z", CPB3)) == \
        underlying_permutation(parse_word("s1", CPB3))
    # involutive kinds act like transpositions regardless of sign
    assert underlying_permutation(parse_word("t2", FVB3)) == (1, 3, 2)


def test_purity_random_pure_words():
    rng = random.Random(33)
    for _ in range(50):
        w = random_pure_word(5, rng, factors=3)
        assert is_pure(w)
        wz = random_zero_linking_word(5, rng, factors=2)
        assert is_pure(wz)


def test_word_json_round_trip():
    for text, g in (("s1 s2^-3", B4), ("z s2 t1", VCB4),
                    ("p1 t2 s1^-1", FVB3)):
        w = parse_word(text, g)
        assert word_from_json(word_to_json(w)) == w
    g = GroupId("FVB", 3, flat_braid_relation=True)
    w = Word(g, (pi(1), sigma(2)))
    assert word_from_json(word_to_json(w)) == w


def test_relation_suite_shapes():
    labels_b = [lab for lab, _, _ in relation_suite(GroupId("B", 4))]
    assert any("far" in lab for lab in labels_b)
    assert any("braid" in lab for lab in labels_b)
    labels_v = [lab for lab, _, _ in relation_suite(VCB4)]
    assert any("wrap" in lab or "rotation" in lab for lab in labels_v)
    suite_f = relation_suite(FVB3)
    suite_f_flat = relation_suite(GroupId("FVB", 3, flat_braid_relation=True))
    assert len(suite_f_flat) > len(suite_f)
    for _, left, right in suite_f_flat:
        assert underlying_permutation(left) == underlying_permutation(right)


def test_relation_suite_permutations_consistent():
    for gid in (GroupId("B", 5), GroupId("CPB", 4), GroupId("VCB", 4),
                GroupId("FVB", 4), GroupId("FVB", 4, flat_braid_relation=True)):
        for label, left, right in relation_suite(gid):
            assert underlying_permutation(left) == \
                underlying_permutation(right), (str(gid), label)


def test_zeta_letters():
    w = parse_word("z^3 z^-1", CPB3)
    assert format_word(w) == "z^2"
    assert zeta(-2).power == -2
    assert tau(1).kind == "t" and sigma(2, -1).power == -1
