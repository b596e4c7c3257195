import random
from fractions import Fraction

import pytest

from braidrep.braidword import (GroupId, Letter, Word, bigelow5, parse_word,
                                pi, relation_suite, sigma, tau, zeta)
from braidrep.errors import IncompatibleRepGroup
from braidrep.homs import PipelineConfig, pipeline_word
from braidrep import rep
from braidrep.laurent import (Assignment, LaurentPoly, Matrix, T, S, R,
                              mat_eval, mat_mul, mat_to_text)
from braidrep.rep import (BURAU_REDUCED, BURAU_UNREDUCED, RHO, RHO_TILDE,
                          _action, check_compatible, generator_image, rep_dim,
                          word_image)

CPB4 = GroupId("CPB", 4)
VCB4 = GroupId("VCB", 4)
FVB4 = GroupId("FVB", 4)
B4 = GroupId("B", 4)

ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def test_dims():
    assert rep_dim(RHO, CPB4) == 4
    assert rep_dim(RHO_TILDE, FVB4) == 4
    assert rep_dim(BURAU_UNREDUCED, B4) == 4
    assert rep_dim(BURAU_REDUCED, B4) == 3


def test_compatibility_gate():
    check_compatible(RHO, CPB4)
    check_compatible(RHO, VCB4)
    with pytest.raises(IncompatibleRepGroup):
        check_compatible(RHO, FVB4)
    with pytest.raises(IncompatibleRepGroup):
        check_compatible(RHO_TILDE, VCB4)
    with pytest.raises(IncompatibleRepGroup):
        check_compatible(BURAU_REDUCED, CPB4)


def test_crossing_block_entries():
    m = word_image(Word(CPB4, (sigma(2),)), RHO)
    assert m[1, 1] == ONE - T and m[1, 2] == T
    assert m[2, 1] == ONE and m[2, 2] == ZERO
    assert m[0, 0] == ONE and m[3, 3] == ONE
    inv = word_image(Word(CPB4, (sigma(2, -1),)), RHO)
    assert mat_mul(m, inv) == Matrix.identity(4)


def test_wrap_generator_couples_last_and_first_rows():
    m = word_image(Word(CPB4, (sigma(4),)), RHO)
    assert m[3, 3] == ONE - T and m[3, 0] == T
    assert m[0, 3] == ONE and m[0, 0] == ZERO
    assert m[1, 1] == ONE and m[2, 2] == ONE


def test_rotation_matrix_is_cyclic_permutation():
    z = word_image(Word(CPB4, (zeta(),)), RHO)
    for i in range(4):
        for j in range(4):
            want = ONE if j == (i + 1) % 4 else ZERO
            assert z[i, j] == want
    zn = word_image(Word(CPB4, (zeta(1),) * 4), RHO)
    assert zn == Matrix.identity(4)
    assert word_image(Word(CPB4, (zeta(-3),)), RHO) == \
        word_image(Word(CPB4, (zeta(1),)), RHO)


def test_virtual_letter_is_involution():
    tm = word_image(Word(VCB4, (tau(2),)), RHO)
    assert tm[1, 2] == S and tm[2, 1] == S.inverse_unit()
    assert mat_mul(tm, tm) == Matrix.identity(4)
    pm = word_image(Word(FVB4, (parse_word("p2", FVB4).letters[0],)), RHO_TILDE)
    assert mat_mul(pm, pm) == Matrix.identity(4)
    rm = word_image(Word(FVB4, (tau(2),)), RHO_TILDE)
    assert rm[1, 2] == R and mat_mul(rm, rm) == Matrix.identity(4)


@pytest.mark.parametrize("letter,unit", ((tau(2), R), (pi(2), S)),
                         ids=("tau", "pi"))
def test_rho_tilde_puts_virtual_blocks_in_r_and_flat_blocks_in_s(letter,
                                                                 unit):
    # PAPER.md's summary names s and r the other way round; the pinned
    # geometry digests and acceptance matrices are images under this one
    image = word_image(Word(FVB4, (letter,)), RHO_TILDE)
    want = {(1, 2): unit, (2, 1): unit.inverse_unit()}
    for i in range(4):
        for j in range(4):
            assert image[i, j] == want.get(
                (i, j), LaurentPoly.one() if i == j and i not in (1, 2)
                else LaurentPoly.zero())


def test_relation_suites_hold():
    cases = [(RHO, GroupId("CPB", n)) for n in (3, 4, 5)]
    cases += [(RHO, GroupId("VCB", n)) for n in (3, 4, 5)]
    cases += [(RHO_TILDE, GroupId("FVB", n)) for n in (3, 4)]
    cases += [(RHO_TILDE, GroupId("FVB", n, flat_braid_relation=True))
              for n in (3, 4)]
    cases += [(BURAU_UNREDUCED, GroupId("B", n)) for n in (3, 4, 5)]
    cases += [(BURAU_REDUCED, GroupId("B", n)) for n in (3, 4, 5)]
    for rep_id, gid in cases:
        for label, left, right in relation_suite(gid):
            assert word_image(left, rep_id) == word_image(right, rep_id), \
                (rep_id, str(gid), label)


def test_word_image_multiplicative():
    rng = random.Random(9)
    kinds = {"CPB": ("s", "z"), "VCB": ("s", "t", "z"), "FVB": ("s", "p", "t")}
    reps = {"CPB": RHO, "VCB": RHO, "FVB": RHO_TILDE}
    for fam in ("CPB", "VCB", "FVB"):
        g = GroupId(fam, 4)
        hi = 4 if g.cyclic else 3
        def rand_word():
            letters = []
            for _ in range(rng.randrange(1, 6)):
                k = rng.choice(kinds[fam])
                idx = None if k == "z" else rng.randrange(1, hi + 1)
                letters.append((k, idx, rng.choice((-1, 1))))
            from braidrep.braidword import Letter, free_reduce_letters
            return Word(g, free_reduce_letters(
                Letter(k, i, p) for k, i, p in letters))
        for _ in range(40):
            u, v = rand_word(), rand_word()
            assert word_image(u * v, reps[fam]) == \
                mat_mul(word_image(u, reps[fam]), word_image(v, reps[fam]))


def letter_matrix(rep_id, g, letter):
    """The image of a letter of power +-1 built entry by entry, apart from
    the fold: z as the cyclic shift, any other letter from its action
    form (column dest of the identity becomes the sum of its terms)."""
    n = rep_dim(rep_id, g)
    if letter.kind == "z":
        return Matrix(n, tuple(tuple(ONE if j == (i + letter.power) % n
                                     else ZERO for j in range(n))
                               for i in range(n)))
    cols = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    for dest, terms in _action(rep_id, n, letter.kind,
                               g.slots(letter.index), letter.power > 0):
        cols[dest] = [ZERO] * n
        for sign, (a, b, c), src in terms:
            cols[dest][src] += LaurentPoly.monomial(sign, a, b, c)
    return Matrix(n, tuple(zip(*cols)))


def unit_product(rep_id, g, letters):
    """The left-to-right product of the images of single letters of power
    +-1, powers spelled out; each unit image is also generator_image's."""
    product = Matrix.identity(rep_dim(rep_id, g))
    for l in letters:
        letter = Letter(l.kind, l.index, 1 if l.power > 0 else -1)
        unit = letter_matrix(rep_id, g, letter)
        assert unit == generator_image(rep_id, g, letter)
        for _ in range(abs(l.power)):
            product = mat_mul(product, unit)
    return product


def random_letters(rng, g, kinds, length):
    """length letters of the given kinds (repeat a kind to weight it), each
    of a small power, z of a power past n as well."""
    n, hi = g.strands, g.strands if g.cyclic else g.strands - 1
    letters = []
    for _ in range(length):
        k = rng.choice(kinds)
        power = rng.choice((-1, 1)) * rng.choice(
            (1, 1, 2, 3) if k != "z" else (1, 2, n + 1, 2 * n + 3))
        letters.append(Letter(k, None if k == "z" else
                              rng.randrange(1, hi + 1), power))
    return letters


@pytest.mark.parametrize("family,rep_id,kinds", (
    ("CPB", RHO, "sz"), ("VCB", RHO, "stz"), ("FVB", RHO_TILDE, "spt"),
    ("CPB", RHO, "z"), ("VCB", RHO, "tz"), ("FVB", RHO_TILDE, "pt"),
    ("B", BURAU_UNREDUCED, "s"), ("B", BURAU_REDUCED, "s")))
def test_deferred_fold_matches_product_of_letter_images(family, rep_id, kinds):
    """The fold that packs each column's classes with the row interleaved
    into t, rotates the columns for z and folds t and p by their
    power mod 2, equals, byte for byte, the left-to-right product of the
    images of single letters of power +-1, powers spelled out: from dim 1
    (B2 reduced) to 7, and with negative s and r exponents."""
    rng = random.Random(f"{family} {kinds}")
    negative = set()    # variables seen with a negative exponent in an image
    for n in (3, 4, 5, 6, 7) if family != "B" else (2, 3, 4, 5, 6, 7):
        g = GroupId(family, n)
        for _ in range(20):
            letters = random_letters(rng, g, kinds, rng.randrange(1, 14))
            product = unit_product(rep_id, g, letters)
            image = word_image(Word(g, tuple(letters)), rep_id)
            assert mat_to_text(image) == mat_to_text(product), \
                (str(g), letters)
            assert image == product
            negative.update(v for row in image.rows for x in row
                            for e, _ in x.items()
                            for v, ev in zip("tsr", e) if ev < 0)
    if family == "FVB":    # p shifts by s, and t by r
        assert {"s", "r"} <= negative
    elif "t" in kinds:    # VCB's t shifts by s
        assert "s" in negative


@pytest.mark.parametrize("family,rep_id,kinds", (
    ("FVB", RHO_TILDE, "ttttpppps"), ("VCB", RHO, "ttttzzzzs"),
    ("CPB", RHO, "zzzzs")))
def test_pending_monomials_match_product_on_long_words(family, rep_id, kinds):
    """Words of 60 to 200 letters, mostly t, p and z, whose one-term
    updates leave columns sharing classes under pending monomials (sign,
    t, s and r shifts), fold to the product of their letters' images,
    byte for byte."""
    rng = random.Random(f"long {family} {kinds}")
    for n in (3, 4, 6):
        g = GroupId(family, n)
        for _ in range(2):
            letters = random_letters(rng, g, kinds, rng.randrange(60, 201))
            image = word_image(Word(g, tuple(letters)), rep_id)
            assert mat_to_text(image) == \
                mat_to_text(unit_product(rep_id, g, letters)), \
                (str(g), letters)


def test_pending_monomials_through_a_repack_and_a_sign(monkeypatch):
    """(t1 p2 s1 t2 s2^-1 p1)^60 in FVB3 has 82-bit coefficients, so the fold
    repacks mid-word while columns carry pending monomials; B2's
    burau-reduced s1^+-k is dim 1, where the one update is one term of sign
    -1, so only the pending sign moves. Both equal the product of their
    letters' images, byte for byte."""
    pending = []    # per settle: does a column carry a monomial?
    settled = rep._settled
    monkeypatch.setattr(rep, "_settled", lambda cols: pending.append(
        any(col[:4] != (1, 0, 0, 0) for col in cols)) or settled(cols))
    g = GroupId("FVB", 3)
    letters = parse_word("(t1 p2 s1 t2 s2^-1 p1)^60", g).letters
    image = word_image(Word(g, letters), RHO_TILDE)
    assert mat_to_text(image) == mat_to_text(
        unit_product(RHO_TILDE, g, letters))
    assert max(abs(c).bit_length() for row in image.rows for x in row
               for _, c in x.items()) == 82
    assert len(pending) >= 2 and any(pending[:-1])    # a repack, then split
    g = GroupId("B", 2)
    for letters in [(sigma(1, k),) for k in (1, 2, 7, 50, -1, -2, -7, -50)] \
            + [(sigma(1, 3), sigma(1, -8), sigma(1, 2))]:
        assert mat_to_text(word_image(Word(g, letters), BURAU_REDUCED)) == \
            mat_to_text(unit_product(BURAU_REDUCED, g, letters))


@pytest.mark.parametrize("rep_id,family", (
    (RHO, "CPB"), (RHO, "VCB"), (RHO_TILDE, "FVB"),
    (BURAU_UNREDUCED, "B"), (BURAU_REDUCED, "B")))
def test_symbolic_fold_adds_packed_integers_past_64_bits(rep_id, family):
    """The fold's images equal the product of the letters' images where the
    coefficients outgrow 64-bit digits ((s1 s2^-1)^60 has 79-bit ones, ^150
    203-bit ones), and where they stay +-1 while the bound on them passes
    2^63 many times (s1^200)."""
    g2, g3 = GroupId(family, 2 if family == "B" else 3), GroupId(family, 3)
    up, down = (letter_matrix(rep_id, g3, sigma(i, e))
                for i, e in ((1, 1), (2, -1)))
    cases = [(Word(g2, (sigma(1, 200),)),
              [letter_matrix(rep_id, g2, sigma(1))] * 200, 1)]
    for k, bits in ((60, 79), (150, 203)):
        cases.append((Word(g3, (sigma(1), sigma(2, -1)) * k),
                      [up, down] * k, bits))
    for word, images, bits in cases:
        product = Matrix.identity(images[0].dim)
        for m in images:
            product = mat_mul(product, m)
        image = word_image(word, rep_id)
        assert image == product
        assert max(abs(c).bit_length() for row in image.rows for x in row
                   for _, c in x.items()) == bits


def test_evaluated_image_matches_symbolic():
    rng = random.Random(77)
    at = Assignment(Fraction(-2), Fraction(3, 2), Fraction(-1, 3))
    w = parse_word("s1 z t3 s2^-1 z^-1 t1", VCB4)
    sym = word_image(w, RHO)
    fast = word_image(w, RHO, at)
    assert fast == mat_eval(sym, at)
    wf = parse_word("s1 p2 t3 s2^-1", FVB4)
    assert word_image(wf, RHO_TILDE, at) == \
        mat_eval(word_image(wf, RHO_TILDE), at)


def test_memoized_plans_serve_every_point_unchanged():
    """The folds share memoized actions and plans across calls: one word
    evaluated at A, then B, then A again equals mat_eval of its symbolic
    image each time, and a plan holds only tuples, which no fold can
    change. At t = 1 an s cancels its 1 - t, so columns share lists."""
    w = parse_word("s1^3 t2 z s2^-2 t1 s3^-1 z^-1 s1", VCB4)
    sym = word_image(w, RHO)
    a = Assignment(Fraction(1), Fraction(3, 2))
    b = Assignment(Fraction(-2, 3), Fraction(5), Fraction(-1, 3))
    for at in (a, b, a):
        assert word_image(w, RHO, at) == mat_eval(sym, at)
    assert word_image(w, RHO) == sym
    point = tuple(v.as_integer_ratio() for v in (a.t, a.s, a.r))
    den, updates, kept = rep._evaluated_action(RHO, 4, "s", (1, 2), True,
                                               point)
    assert type(updates) is type(kept) is tuple
    assert all(type(terms) is tuple for _, terms in updates)


def _assert_fold_matches_symbolic(word, rep_id, at):
    fast = word_image(word, rep_id, at)
    assert all(type(x) is Fraction for row in fast for x in row)
    assert fast == mat_eval(word_image(word, rep_id), at)
    return fast


def test_evaluated_fold_sweep():
    rng = random.Random(2024)
    short, odd = ((3, 6), (1, 12), (-2, -1, 1, 2)), ((3, 6), (1, 12), (-3, 3))
    cases = [(RHO, "B", "s", short), (RHO, "CPB", "sz", short),
             (RHO, "VCB", "stz", short), (RHO_TILDE, "FVB", "spt", short),
             (BURAU_UNREDUCED, "B", "s", short),
             (BURAU_REDUCED, "B", "s", short),
             # dim 1: s acts by one term, -t or -t^-1, on its own column
             (BURAU_REDUCED, "B", "s", ((2, 3), (1, 12), (-3, -1, 1, 3))),
             # odd powers of z, t and p above 1 survive t and p's mod 2
             (RHO, "CPB", "sz", odd), (RHO, "VCB", "stz", odd),
             (RHO_TILDE, "FVB", "spt", odd),
             # 60 letters or more: the scale passes 64 bits, and the gcd
             # reduction divides the columns' multipliers and entries
             (RHO, "VCB", "stz", ((4, 6), (60, 80), (-2, -1, 1, 2)))]
    # at t = 1 an s cancels its 1 - t: its updates are one-term each, so
    # two columns share one list through later sums and reductions
    values = [Fraction(2, 3), Fraction(-3, 2), Fraction(5, -7),
              Fraction(-4, 9), Fraction(7, 4), Fraction(3), Fraction(-1),
              Fraction(1)]
    for rep_id, fam, kinds, (strands, length, powers) in cases:
        for _ in range(25):
            g = GroupId(fam, rng.randrange(*strands))
            hi = g.strands if g.cyclic else g.strands - 1
            letters = []
            for _ in range(rng.randrange(*length)):
                k = rng.choice(kinds)
                letters.append(Letter(k, None if k == "z" else
                                      rng.randrange(1, hi + 1),
                                      rng.choice(powers)))
            r = rng.choice(values) if rep_id == RHO_TILDE else Fraction(1)
            at = Assignment(rng.choice(values), rng.choice(values), r)
            _assert_fold_matches_symbolic(Word(g, tuple(letters)), rep_id, at)


def test_evaluated_powers_reduce_without_refolding(monkeypatch):
    """Powers spelling 120 to 300 unit letters, under both Burau forms and
    rho on B: at these points every unit letter has a denominator, so the
    scale passes 64 bits and the gcd reduction runs, on columns that a power
    leaves kept for many steps (the reduced action of s2 on B3 reads its
    kept column 0). The image equals mat_eval of the symbolic one."""
    wide = []    # gcd calls on an int of 64 bits or more: only the reduction's
    real_gcd = rep.gcd

    def gcd(*args):
        wide.append(args[0].bit_length() >= 64)
        return real_gcd(*args)

    monkeypatch.setattr(rep, "gcd", gcd)
    rng = random.Random(31)
    words = [parse_word("s2^-150", GroupId("B", 3)),
             parse_word("s1^120 s2^-40", GroupId("B", 3))]
    while len(words) < 8:
        g = GroupId("B", rng.randrange(3, 5))
        letters, total = [], rng.randrange(120, 301)
        while total > 0:    # neighbours differ, so no power merges
            power = min(total, rng.randrange(1, 41))
            total -= power
            i = rng.choice([x for x in range(1, g.strands)
                            if not letters or x != letters[-1].index])
            letters.append(sigma(i, rng.choice((-power, power))))
        words.append(Word(g, tuple(letters)))
    points = [Assignment(Fraction(3, 2), Fraction(-1, 2)),
              Assignment(Fraction(2, 3), Fraction(5, 7))]
    for w in words:
        for rep_id in (BURAU_REDUCED, BURAU_UNREDUCED, RHO):
            for at in points:
                wide.clear()
                _assert_fold_matches_symbolic(w, rep_id, at)
                assert any(wide)


def test_evaluated_fold_without_denominators():
    at = Assignment(Fraction(-1), Fraction(1))
    w = parse_word("s1^2 z t3^-1 s2^-2 z^-2 t1 s4^-1", VCB4)
    fast = _assert_fold_matches_symbolic(w, RHO, at)
    assert all(x.denominator == 1 for row in fast for x in row)
    wb = parse_word("s1^2 s2^-1 s3 s1^-2", B4)
    _assert_fold_matches_symbolic(wb, BURAU_REDUCED, at)


def test_evaluated_fold_long_pipeline():
    at = Assignment(Fraction(2, 3), Fraction(3, 2))
    w = pipeline_word(bigelow5(), PipelineConfig(5, 1, 2))
    fast = _assert_fold_matches_symbolic(w, RHO, at)
    assert any(x.denominator != 1 for row in fast for x in row)


def test_evaluated_fold_of_long_identity_word():
    """36,000 letters whose partial products keep small denominators; the
    integer fold reduces against its scale and ends exactly."""
    at = Assignment(Fraction(2, 3), Fraction(3, 2))
    b5 = GroupId("B", 5)
    cycle = "(s1 s2 s1 s2^-1 s1^-1 s2^-1 s3 s4 s3 s4^-1 s3^-1 s4^-1)^3000"
    m = word_image(parse_word(cycle, b5), RHO, at)
    assert all(type(x) is Fraction and x == (i == j)
               for i, row in enumerate(m) for j, x in enumerate(row))
    tail = "s1 s3^-1 s2^2"
    got = word_image(parse_word(f"{cycle} {tail}", b5), RHO, at)
    assert got == mat_eval(word_image(parse_word(tail, b5), RHO), at)


def test_burau_row_sums_one():
    rng = random.Random(5)
    for _ in range(20):
        letters = [sigma(rng.randrange(1, 4), rng.choice((-1, 1)))
                   for _ in range(6)]
        from braidrep.braidword import free_reduce_letters
        w = Word(B4, free_reduce_letters(letters))
        m = word_image(w, BURAU_UNREDUCED)
        ones = Assignment(Fraction(1), Fraction(1))
        for row in m.rows:
            total = ZERO
            for entry in row:
                total = total + entry
            assert total == ONE
        # reduced image stays (n-1)-dimensional
        assert word_image(w, BURAU_REDUCED).dim == 3


def test_generator_image_and_word_image_dispatch():
    m = generator_image(RHO, CPB4, sigma(1))
    assert m.dim == 4 and m[0, 0] == ONE - T
    w = parse_word("s1", B4)
    with pytest.raises(IncompatibleRepGroup):
        word_image(w, "frobenius")
    with pytest.raises(IncompatibleRepGroup):
        word_image(parse_word("s1", CPB4), BURAU_REDUCED)


def test_evaluated_image_matches_symbolic_at_1123_points():
    word = parse_word("s1 s2^-1 s1", GroupId("B", 3))
    symbolic = word_image(word, BURAU_UNREDUCED)
    for k in range(1, 1124):
        a = Assignment(Fraction(k, 7), Fraction(1))
        assert word_image(word, BURAU_UNREDUCED, a) == mat_eval(symbolic, a)


def test_evaluated_letter_images_match_symbolic_on_a_grid():
    """Every one-letter image of every rep, kind, slot and sign, evaluated
    directly, equals mat_eval of its symbolic image, at points with negative
    and non-unit values."""
    cases = [(RHO, "B", "s"), (RHO, "CPB", "s"), (RHO, "VCB", "st"),
             (RHO_TILDE, "FVB", "spt"), (BURAU_UNREDUCED, "B", "s"),
             (BURAU_REDUCED, "B", "s")]
    values = [Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(5, 7)]
    grid = [Assignment(t, s, r) for t in values for s in values
            for r in (Fraction(1), Fraction(-4, 9))]
    for rep_id, fam, kinds in cases:
        for n in (2, 3, 5):
            g = GroupId(fam, n)
            for kind in kinds:
                for i in g.indices:
                    for power in (1, -1):
                        word = Word(g, (Letter(kind, i, power),))
                        symbolic = word_image(word, rep_id)
                        for a in grid:
                            assert word_image(word, rep_id, a) == \
                                mat_eval(symbolic, a), (rep_id, g, kind, i,
                                                         power, a)
