import gc
import hashlib
import random
from itertools import groupby
from operator import itemgetter

import pytest

from braidrep import braidword
from braidrep.braidword import (MAX_LETTERS, MAX_NESTING, MAX_STRANDS,
                                SHARED_LETTERS, GroupId, Letter,
                                Word, bigelow5, format_word, free_reduce_letters,
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
    # every distinct letter is checked, not only the first of its kind
    with pytest.raises(IndexOutOfRange):
        parse_word("s1 s2 s1 s4", B4)
    with pytest.raises(KindNotInGroup):
        Word(B4, (sigma(1), sigma(2), sigma(1), tau(1)))


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
    # a stray ')' is refused where an atom is expected
    for text in (")", "s1 s2)", "(s1) s2)", "comm(s1; s2))"):
        with pytest.raises(WordSyntaxError, match=r"expected a generator, "
                           r"group or macro, got '\)'"):
            parse_word(text, B4)
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


def test_random_pure_word_factor_count_must_not_be_negative():
    assert random_pure_word(4, random.Random(0), factors=0).letters == ()
    with pytest.raises(ValueError, match="factor count -1 is negative"):
        random_pure_word(4, random.Random(0), factors=-1)


def test_random_zero_linking_word_factor_count_must_not_be_negative():
    assert random_zero_linking_word(4, random.Random(0), factors=0).letters \
        == ()
    with pytest.raises(ValueError, match="factor count -1 is negative"):
        random_zero_linking_word(4, random.Random(0), factors=-1)


def test_random_zero_linking_word_needs_three_strands():
    """B2 has one band generator, so no commutator of two distinct ones: a
    factor is refused before any draw, and no factor is the empty word."""
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError,
                       match="zero-linking factors need 3 strands, not 2"):
        random_zero_linking_word(2, rng, 1)
    assert rng.getstate() == state
    assert random_zero_linking_word(2, rng, factors=0) == \
        Word.empty(GroupId("B", 2))


def test_word_json_round_trip():
    for text, g in (("s1 s2^-3", B4), ("z s2 t1", VCB4),
                    ("p1 t2 s1^-1", FVB3)):
        w = parse_word(text, g)
        assert word_from_json(word_to_json(w)) == w
    g = GroupId("FVB", 3, flat_braid_relation=True)
    w = Word(g, (pi(1), sigma(2)))
    assert word_from_json(word_to_json(w)) == w


@pytest.mark.parametrize("letter,field", (
    ({"k": "s", "i": True, "p": 1}, "i"),
    ({"k": "s", "i": 2.0, "p": 1}, "i"),
    ({"k": "s", "i": "1", "p": 1}, "i"),
    ({"k": "s", "i": 1, "p": 1.9}, "p"),
    ({"k": "s", "i": 1, "p": 1.0}, "p"),
    ({"k": "s", "i": 1, "p": False}, "p"),
    ({"k": "z", "p": "2"}, "p")))
def test_word_json_refuses_non_integer_fields(letter, field):
    data = {"group": {"family": "VCB", "strands": 4}, "letters": [letter]}
    with pytest.raises(WordSyntaxError,
                       match=f"letter field '{field}' must be an integer"):
        word_from_json(data)


@pytest.mark.parametrize("flag", ("false", "true", 0, 1, None))
def test_word_json_flat_braid_relation_must_be_a_boolean(flag):
    data = {"group": {"family": "FVB", "strands": 3,
                      "flatBraidRelation": flag}, "letters": []}
    with pytest.raises(WordSyntaxError, match="is not a boolean"):
        word_from_json(data)


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


# (family, flat_braid_relation) of each column in SUITE_DIGESTS
SUITE_SHAPES = (("B", False), ("CPB", False), ("VCB", False), ("FVB", False),
                ("FVB", True))

# SHA-256 of each suite as sorted (label, left, right) text, per strand
# count, as the earlier per-family builders produced them
SUITE_DIGESTS = {
    2: (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "3a169c88fcc5ec8576cce9dfe8df7ed6f7b409c0e08d98c31abdd77dd46da962",
        "f85a2481222a2c3afe98b9ce6a02fb312f9de18297bfe109da5909dfd1293b02",
        "ca0067b80ea2badb49055dc6077c7285d6b7d5f5b639c6514fe3a40f01ae228d",
        "ca0067b80ea2badb49055dc6077c7285d6b7d5f5b639c6514fe3a40f01ae228d",
    ),
    3: (
        "3172eeb50fbc784fb440d05888e2e8e67c2f5a2634844ff483ff6b39b49d809e",
        "d040e2626e9c0979f1c73ff62cd8d803a391d5e27486976f5b5f8b089accfeb9",
        "51580e33992983a1264fea1bc4dae98fd964d19f7ba4c5a073a56e391da59ec3",
        "7736f8c21a26b590b044a334f3f5f509a50252334d76d3445425ca3b10d0064d",
        "0f26869bdaad075b6efe1d3b1ee03a715b7b6ecf3ad4c58b3ea8db3c90f3aec4",
    ),
    4: (
        "aa311f932912e794eaa0c5ca98f725eedf599bc0f3b416cba250935b185514ae",
        "5893485f554347cdeacb2b6e19959009cb024aba832563ee2f30f4ffdd5bc513",
        "67202a9e4efa308804e1896f960507b3657543c98d30bb6b5a81558cd2bc5911",
        "58508ec822e21253bc7979e4e4466d0424aafc0862b04ffd03204b843699751a",
        "b8c3a9c63be490867dde6e6f93693ba9a93081020e72f14d7fea34c7447d45b2",
    ),
    5: (
        "6a53fcda3ef202456b46941ee5f1085d2dedd56750b7f0c5689c1df29545205e",
        "f92a2544494f1c9fbba3f31c59eb7395a0806c7c60a88b8452add14222dd240b",
        "714b33608dc6ed76046003e333f755ded9a568f3142248bbea820b8bfed66ccc",
        "36d91298d0137ba7b5af2616fbd01f8da78d7f4255d76f847c9a8aa2ee961572",
        "51c3ce14145da1eb559d38b9fc91eadd27a1581f956c4125338ac50f0c7ece7c",
    ),
    6: (
        "80997a1cdf3f09290ca49530268154009de45d553f203d69b974eccc58b7431e",
        "f49c0350491be2f1bf8f2b13a79e5e2e52a595d36c4cbb08b392ae5b3ea12351",
        "c711c32d878572746371a4d95d0b2f76a5711621b0a54b89bda049d48e44e6ca",
        "c9870e31ee81fbd518f8cf2d967758122b2c465ad59f8bb06ea894e69a3e46e4",
        "1bea308fc75168d2619df79313283d2ad029cda45d67e8840b724f89a9c60726",
    ),
    7: (
        "417b8af234b69730185919d051f7d9240171e5e16e03ee5ce2f26852d78e3d56",
        "7deed359b42e58c8774217e98c6b11d002f5e82c5c8a3ffd039d65ecde055736",
        "bc97fac28e03b2c9916ab594c7876349781b62f58108f769c091e9d85b6eb9eb",
        "5326af62c261a459216251a4bf5bb92d11245d171880ab553e878d7ed5e049f9",
        "32efdaab9847334fadefc67eb3aba71475b4af07773153c78ca8b4cbeb030946",
    ),
    8: (
        "dc9a51ebca34ab4e11fb01fbdf94b55ae2fc4d2b7a11740290c7798e63d88fb2",
        "8c3b4b4e77d2efd1ebc2f62ff9f8d6ffcda5eabf20cff10469909d340a6e9815",
        "3128f4abc92c10060c2ba2a63e38481225cca32291ef02da247e78a6956e06f6",
        "f00dbd91a9bd8868e1c0564adee660132fa479f6cc62f590e30e86d8662bbaee",
        "b9121ea6e2a8ab0643042af21211b14bde86378f34bcdd22be9a3d4125ddca22",
    ),
    9: (
        "86f6669a4062d230daf2dbf56e6d3273c265c2fcb7d0fa2606bbb71e36c0ff42",
        "dc0768850221e83639817c35b859826dea45442558cbfa303831120fc329b374",
        "734f2f32e30536e43f5a4270c5cabdc8e64721000cf96789846ce0bb020969d4",
        "0d79ab7cfe4dad336063e24af9ac9f4672eac804ff48fb930e1b9949b6842e3c",
        "1fa1da0a42a9903506559ceaef0b19433b51e99e6c692dbfc08d23fbf254d8e0",
    ),
}


def _suite_digest(group):
    rows = sorted((label, format_word(left), format_word(right))
                  for label, left, right in relation_suite(group))
    text = "\n".join("\t".join(row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_relation_suites_are_pinned():
    assert sorted(SUITE_DIGESTS) == list(range(2, 10))
    for n, digests in SUITE_DIGESTS.items():
        for (family, flat), digest in zip(SUITE_SHAPES, digests, strict=True):
            gid = GroupId(family, n, flat_braid_relation=flat)
            assert _suite_digest(gid) == digest, (str(gid), flat)
    for text, gid, message in (
            ("s4", B4, "s4 outside 1..3 in B4"),
            ("s5", GroupId("CPB", 4), "s5 outside 1..4 in CPB4"),
            ("t4", GroupId("VCB", 3), "t4 outside 1..3 in VCB3"),
            ("p3", FVB3, "p3 outside 1..2 in FVB3")):
        with pytest.raises(IndexOutOfRange) as exc:
            parse_word(text, gid)
        assert str(exc.value) == message


def test_relation_suite_permutations_consistent():
    for n in range(2, 7):
        for family, flat in SUITE_SHAPES:
            gid = GroupId(family, n, flat_braid_relation=flat)
            for label, left, right in relation_suite(gid):
                assert underlying_permutation(left) == \
                    underlying_permutation(right), (str(gid), flat, label)


def test_zeta_letters():
    w = parse_word("z^3 z^-1", CPB3)
    assert format_word(w) == "z^2"
    assert zeta(-2).power == -2
    assert tau(1).kind == "t" and sigma(2, -1).power == -1


def test_letter_kind_is_one_whole_kind():
    for kind in ("", "st", "sz", "stpz", "x", "S"):
        with pytest.raises(ValueError, match="unknown kind"):
            Letter(kind, 1, 1)
    for kind in ("", "st", "tz"):
        data = {"group": {"family": "VCB", "strands": 3},
                "letters": [{"k": kind, "i": 1, "p": 1}]}
        with pytest.raises(WordSyntaxError, match="unknown kind"):
            word_from_json(data)


def test_one_letter_power_stays_one_letter():
    B3 = GroupId("B", 3)
    assert parse_word("s1^2000000", B3).letters == (sigma(1, 2000000),)
    assert parse_word("(s2)^-3 A[1,2]^4", B3).letters == \
        (sigma(2, -3), sigma(1, 8))
    assert parse_word("z^3 z^-5 (z)^0", CPB3).letters == (zeta(-2),)
    assert format_word(parse_word("t1^3 t2^-1 p1^4", FVB3)) == "t1 t2"
    # a power of several letters is still spelled out
    assert len(parse_word("(s1 s2)^3", B3)) == 6
    for k in range(-7, 8):
        for text, gid in (("s2", B4), ("t1", FVB3), ("z", CPB3)):
            unit = parse_word(text, gid).letters * abs(k)
            if k < 0:
                unit = tuple(l.inverse() for l in unit)
            assert parse_word(f"{text}^{k}", gid) == \
                Word(gid, free_reduce_letters(unit))


def test_letters_are_shared_and_their_table_is_bounded():
    braidword._letter.cache_clear()
    # a field that only compares equal to an int is refused, though the
    # int's letter is in the table
    assert type(sigma(3).index) is int
    with pytest.raises(ValueError, match="must be an integer"):
        sigma(3.0)
    w = parse_word("s1 s2^-1 s1 comm(s1; s2)", B4)
    assert w.letters[0] is sigma(1) is sigma(1, -1).inverse()
    unit = w.expanded()
    assert unit[0] is unit[2] is unit[3]
    for k in range(1, 2 * SHARED_LETTERS):
        assert sigma(1, k) == Letter("s", 1, k)
    assert braidword._letter.cache_info().currsize == SHARED_LETTERS


def test_letter_fields_must_be_integers():
    for make in (lambda: Word(B4, (sigma(3.0),)), lambda: sigma(True),
                 lambda: Letter("s", 1, 1.5), lambda: zeta(2.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            make()
    assert sigma(3) == Letter("s", 3, 1) and zeta(-2).power == -2


def test_spelled_out_words_are_capped():
    B3 = GroupId("B", 3)
    assert len(parse_word("(s1 s2)^300000", B3)) == 600000
    assert parse_word("s1^2000000000", B3).letters == (sigma(1, 2000000000),)
    nested = "s1"
    for _ in range(40):
        nested = f"comm({nested}; s2)"
    # a power, a power of a power, nested commutators, a concatenation
    for text in ("(s1 s2)^1000000000", "((s1 s2)^1000)^-1000", nested,
                 f"(s1 s2)^{MAX_LETTERS // 2} s1"):
        with pytest.raises(WordSyntaxError, match="spelled out past"):
            parse_word(text, B3)


def test_group_strands_are_capped():
    assert GroupId("VCB", MAX_STRANDS).indices[-1] == MAX_STRANDS
    with pytest.raises(ValueError, match=f"need 2 to {MAX_STRANDS} strands"):
        GroupId("B", MAX_STRANDS + 1)
    with pytest.raises(WordSyntaxError, match="strands"):
        parse_group("B1000000000")


def _unit_reduction(letters):
    """Free reduction spelled out: each letter as |power| unit letters, an
    adjacent inverse pair cancelled (a t or p unit is its own inverse), then
    each run of one generator merged into one letter."""
    units: list[tuple] = []
    for l in letters:
        unit = 1 if l.kind in "tp" or l.power > 0 else -1
        inverse = (l.kind, l.index, unit if l.kind in "tp" else -unit)
        for _ in range(abs(l.power)):
            if units and units[-1] == inverse:
                units.pop()
            else:
                units.append((l.kind, l.index, unit))
    return tuple(Letter(kind, index, sum(u[2] for u in run))
                 for (kind, index), run in groupby(units, itemgetter(0, 1)))


def test_free_reduction_matches_unit_cancellation():
    # an even involutive power next to the same generator keeps it; merges
    # to zero vanish
    for letters, reduced in (([tau(1), tau(1, 2)], (tau(1),)),
                             ([pi(2, 3), pi(2, -2)], (pi(2),)),
                             ([sigma(1, 2), sigma(1, -2)], ()),
                             ([zeta(), zeta(-1)], ()),
                             ([sigma(2), tau(1, -4), pi(1), pi(1, 2), pi(1, -1),
                               sigma(2, -1)], ())):
        assert free_reduce_letters(letters) == _unit_reduction(letters) == \
            reduced
    rng = random.Random(32)
    kinds = {"B": "s", "CPB": "sz", "VCB": "stz", "FVB": "spt"}
    for _ in range(2000):
        fam = rng.choice(("B", "CPB", "VCB", "FVB"))
        hi = 3 if fam in ("CPB", "VCB") else 2
        letters = []
        for _ in range(rng.randrange(1, 12)):
            kind = rng.choice(kinds[fam])
            idx = None if kind == "z" else rng.randrange(1, hi + 1)
            letters.append(Letter(kind, idx,
                                  rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))))
        assert free_reduce_letters(letters) == _unit_reduction(letters)


@pytest.mark.parametrize("strands", (3.7, 3.0, True, "3"))
def test_word_json_refuses_a_non_integer_strand_count(strands):
    data = {"group": {"family": "B", "strands": strands}, "letters": []}
    with pytest.raises(WordSyntaxError, match=f"malformed word JSON: strand "
                       f"count {strands!r} is not an integer"):
        word_from_json(data)


def test_seeded_word_generators_are_pinned():
    """The band draws of both generators: index pairs, then the sign of each
    band, as one rng stream."""
    rng = random.Random(31)
    text = "\n".join(format_word(make(n, rng, factors))
                     for n in (3, 5, 7)
                     for make, factors in ((random_pure_word, 6),
                                           (random_zero_linking_word, 3)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d2dcd3a878df22609dd289f4cd5e4218214e918071b7b350d442c37aeb3b06c4"


def test_refusals_name_their_fault():
    with pytest.raises(WordSyntaxError, match=r"unexpected character '\$' at 3"):
        parse_word("s1 $", GroupId("B", 2))
    with pytest.raises(ValueError, match="unknown family 'X'"):
        GroupId("X", 3)
    for strands in (3.7, 3.0, True, "3"):
        with pytest.raises(ValueError,
                           match=f"strand count {strands!r} is not an integer"):
            GroupId("B", strands)
    for kind, index in (("z", 1), ("s", None), ("t", None)):
        with pytest.raises(ValueError, match="index is required exactly "
                           "for indexed kinds"):
            Letter(kind, index, 1)
    for kind, index in (("s", 1), ("z", None)):
        with pytest.raises(ValueError, match="zero power letter"):
            Letter(kind, index, 0)
    with pytest.raises(ValueError, match="cannot concatenate words over "
                       "different groups"):
        parse_word("s1", B4) * parse_word("s1", GroupId("B", 3))


def test_a_parse_leaves_no_reference_cycle():
    """The reader is module functions, not closures, so a parse leaves no
    garbage for the cycle collector, nor does a refusal once its
    traceback is dropped."""
    gc.collect()
    gc.disable()
    try:
        for text in ("comm((A[1,3]^-1 s2)^-2; Dc) s1^3", "s1 (s2", "$"):
            try:
                parse_word(text, B4)
            except WordSyntaxError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# Tokens a text may gain by mutation: stray characters, unknown names and
# tokens out of place; texts join tokens with or without a space, so
# neighbours may run together into others ("s1" "2" reads as s12)
READER_TOKENS = ("s1", "t5", "p0", "z", "(", ")", "^", "-1", "2",
                 "1000000000", "comm(", "comm", ";", "A[", ",", "]", "Dc",
                 "BIGELOW5", "$", "é", "FROB", "s", "\n")
READER_GROUPS = tuple(GroupId(family, n) for family in braidword.FAMILIES
                      for n in (2, 3, 4)) + (GroupId("B", 5),)


def _reader_tokens(rng, group, depth):
    """Tokens of a word in the grammar: generators, z, groups, commutators,
    band generators and named words, some atoms raised to a power; an index
    may fall just outside the group's range."""
    n = group.strands
    out = []
    for _ in range(rng.randrange(depth == 0, 4)):
        r = rng.random()
        if r < 0.15 and depth < 3:
            atom = ["(", *_reader_tokens(rng, group, depth + 1), ")"]
        elif r < 0.25 and depth < 3:
            atom = ["comm(", *_reader_tokens(rng, group, depth + 1), ";",
                    *_reader_tokens(rng, group, depth + 1), ")"]
        elif r < 0.32:
            i = rng.randrange(n)
            atom = ["A[", str(i), ",", str(rng.randrange(i + 1, n + 2)), "]"]
        elif r < 0.4:
            atom = [rng.choice(("Dc", "Dc", "Dv", "BIGELOW5"))]
        elif r < 0.45:
            atom = ["z"]
        else:
            kinds = [k for k in group.kinds if k != "z"]
            hi = group.indices[-1]
            if rng.random() < 0.1:    # a kind or an index out of the group
                atom = [rng.choice("stp") + str(rng.choice((0, hi + 1)))]
            else:
                atom = [rng.choice(kinds) + str(rng.randrange(1, hi + 1))]
        if rng.random() < 0.3:
            atom += ["^", str(rng.choice((-3, -2, -1, 0, 1, 2, 3,
                                           1000000000)))]
        out += atom
    return out


def _reader_text(rng, group):
    """A grammatical text, or one with a token inserted, dropped or swapped."""
    tokens = _reader_tokens(rng, group, 0)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        at = rng.randrange(len(tokens) + 1)
        if rng.random() < 0.5 or at == len(tokens):
            tokens.insert(at, rng.choice(READER_TOKENS))
        elif rng.random() < 0.5:
            del tokens[at]
        else:
            tokens[at] = rng.choice(READER_TOKENS)
    return "".join(token + (" " if rng.random() < 0.7 else "")
                   for token in tokens)


def test_reader_battery_is_pinned():
    """Each text's formatted word, or its refusal as class and message, over
    every family and both commutator conventions. The digest is the one the
    two-layer reader (a token loop, then a parser class) gave, which the one
    recursive function replaced."""
    rng = random.Random(39)
    results = []
    for _ in range(5000):
        group = rng.choice(READER_GROUPS)
        text = _reader_text(rng, group)
        comm = rng.choice(("direct", "inverse-first"))
        try:
            result = format_word(parse_word(text, group, comm))
        except (WordSyntaxError, IndexOutOfRange, KindNotInGroup) as exc:
            result = f"{type(exc).__name__}: {exc}"
        results.append(f"{text!r}\t{group}\t{comm}\t{result}")
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
    assert digest == \
        "3e85ffd22df36e81a53a3c48d41d4c50a488a889879930a2d791aa115657f797"
