import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidrep.errors import DimMismatch, ZeroAssignment
from braidrep.laurent import (Assignment, LaurentPoly, Matrix, T, S, R,
                              T_INV, S_INV, accumulate, digit_codec,
                              format_poly,
                              lp_eval, mat_eval, mat_from_json, mat_mul,
                              mat_to_json, poly_from_json,
                              poly_to_json, rational_det, rational_rank,
                              split_rows)


def rand_poly(rng, terms=4, span=3):
    p = LaurentPoly.zero()
    for _ in range(rng.randrange(terms + 1)):
        mono = LaurentPoly.monomial(rng.randrange(-span, span + 1),
                                    rng.randrange(-span, span + 1),
                                    rng.randrange(-span, span + 1),
                                    rng.randrange(-5, 6))
        p = p + mono
    return p


def rand_assignment(rng):
    def nz():
        while True:
            v = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            if v != 0:
                return v
    return Assignment(nz(), nz(), nz())


def test_ring_axioms_seeded_sweep():
    rng = random.Random(101)
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    for _ in range(1000):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero


def test_eval_is_ring_homomorphism():
    rng = random.Random(202)
    for _ in range(1000):
        a, b = rand_poly(rng), rand_poly(rng)
        at = rand_assignment(rng)
        assert lp_eval(a + b, at) == lp_eval(a, at) + lp_eval(b, at)
        assert lp_eval(a * b, at) == lp_eval(a, at) * lp_eval(b, at)


def test_units_and_powers():
    assert T * T_INV == LaurentPoly.one()
    assert S * S_INV == LaurentPoly.one()
    assert T ** 0 == LaurentPoly.one()
    assert T ** 3 == T * T * T
    assert (T * S) ** -2 == T_INV * T_INV * S_INV * S_INV
    two_t = LaurentPoly.const(2) * T
    with pytest.raises(ValueError):
        two_t.inverse_unit()
    neg = -T
    assert neg.inverse_unit() == -T_INV


def test_no_zero_coefficients_stored():
    p = T + S - T
    assert (0, 0, 0) not in dict(p.items())
    assert all(c != 0 for _, c in p.items())


def test_format_poly_stable():
    p = LaurentPoly.one() - T + LaurentPoly.const(2) * T_INV * S
    text = format_poly(p)
    assert text == "2*t^-1*s + 1 - t"
    assert format_poly(LaurentPoly.zero()) == "0"


def test_poly_json_round_trip():
    rng = random.Random(303)
    for _ in range(200):
        p = rand_poly(rng)
        assert poly_from_json(poly_to_json(p)) == p


def test_poly_json_refuses_a_repeated_exponent():
    terms = [{"e": [1, 0, 0], "c": "3"}, {"e": [1, 0, 0], "c": "-3"}]
    for data in (terms, terms[::-1]):
        with pytest.raises(ValueError, match=r"exponent \[1, 0, 0\] repeated"):
            poly_from_json(data)
        with pytest.raises(ValueError, match="repeated"):
            mat_from_json({"dim": 1, "rows": [[data]]})


def test_assignment_rejects_zero():
    with pytest.raises(ZeroAssignment):
        Assignment(Fraction(0), Fraction(1))


def test_matrix_multiplication_and_identity():
    rng = random.Random(404)
    ident = Matrix.identity(3)
    for _ in range(50):
        rows = [[rand_poly(rng, 2, 2) for _ in range(3)] for _ in range(3)]
        m = Matrix.from_rows(rows)
        assert mat_mul(m, ident) == m
        assert mat_mul(ident, m) == m
    with pytest.raises(DimMismatch):
        mat_mul(Matrix.identity(2), Matrix.identity(3))


def test_matrix_eval_commutes_with_mul():
    rng = random.Random(505)
    at = rand_assignment(rng)
    for _ in range(30):
        a = Matrix.from_rows([[rand_poly(rng, 2, 2) for _ in range(3)]
                              for _ in range(3)])
        b = Matrix.from_rows([[rand_poly(rng, 2, 2) for _ in range(3)]
                              for _ in range(3)])
        lhs = mat_eval(mat_mul(a, b), at)
        rows_a, rows_b = mat_eval(a, at), mat_eval(b, at)
        rhs = tuple(tuple(sum(rows_a[i][k] * rows_b[k][j] for k in range(3))
                          for j in range(3)) for i in range(3))
        assert lhs == rhs


def nonzero_fractions():
    return st.builds(Fraction, st.integers(-7, 7).filter(bool),
                     st.integers(1, 5))


POLYS = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * 3),
                        st.integers(-9, 9), max_size=6).map(LaurentPoly)
POINTS = st.builds(Assignment, nonzero_fractions(), nonzero_fractions(),
                   nonzero_fractions())


@settings(max_examples=50)
@given(p=POLYS, q=POLYS, at=POINTS)
def test_eval_is_multiplicative(p, q, at):
    assert lp_eval(p * q, at) == lp_eval(p, at) * lp_eval(q, at)
    assert lp_eval(p * 3, at) == 3 * lp_eval(p, at)


@settings(max_examples=25)
@given(data=st.data(), dim=st.integers(1, 3), at=POINTS)
def test_matrix_eval_is_multiplicative(data, dim, at):
    a, b = (Matrix.from_rows(data.draw(st.lists(
        st.lists(POLYS, min_size=dim, max_size=dim),
        min_size=dim, max_size=dim))) for _ in range(2))
    rows_a, rows_b = mat_eval(a, at), mat_eval(b, at)
    assert mat_eval(mat_mul(a, b), at) == tuple(
        tuple(sum(rows_a[i][k] * rows_b[k][j] for k in range(dim))
              for j in range(dim)) for i in range(dim))


def test_det_known_values():
    rng = random.Random(606)
    rows = [[LaurentPoly.const(c) for c in r]
            for r in ([2, 0, 1], [1, 1, 0], [0, 3, 1])]
    # det of the elementary crossing block embedded in dim 2: -t
    blk = Matrix.from_rows([[LaurentPoly.one() - T, T],
                            [LaurentPoly.one(), LaurentPoly.zero()]])
    for _ in range(10):
        at = rand_assignment(rng)
        assert rational_det(mat_eval(Matrix.from_rows(rows), at)) == 5
        assert rational_det(mat_eval(blk, at)) == -at.t


def test_det_multiplicative():
    rng = random.Random(606)
    for _ in range(20):
        a = Matrix.from_rows([[rand_poly(rng, 2, 1) for _ in range(3)]
                              for _ in range(3)])
        b = Matrix.from_rows([[rand_poly(rng, 2, 1) for _ in range(3)]
                              for _ in range(3)])
        at = rand_assignment(rng)
        assert rational_det(mat_eval(mat_mul(a, b), at)) == \
            rational_det(mat_eval(a, at)) * rational_det(mat_eval(b, at))


def test_rational_rank_and_det():
    rows = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    assert rational_rank(rows) == 1
    assert rational_det(rows) == 0
    rows2 = ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))
    assert rational_rank(rows2) == 2
    assert rational_det(rows2) == 6


def test_matrix_json_round_trip():
    rng = random.Random(707)
    m = Matrix.from_rows([[rand_poly(rng) for _ in range(2)] for _ in range(2)])
    assert mat_from_json(mat_to_json(m)) == m


def test_equal_polynomials_hash_equal():
    """2 - t + 3 s^-2 r, from JSON in two term orders and by arithmetic;
    and constants against ints."""
    terms = [{"e": [1, 0, 0], "c": "-1"}, {"e": [0, -2, 1], "c": "3"},
             {"e": [0, 0, 0], "c": "2"}]
    built = [poly_from_json(terms), poly_from_json(terms[::-1]),
             3 * S_INV * S_INV * R - T + 2,
             (1 - T) * (1 + T) + T * T + 1 - T + 3 * R * S_INV * S_INV]
    assert all(p == built[0] for p in built)
    assert len({hash(p) for p in built}) == 1
    assert set(built) == {built[0]} and built[0] + 1 not in set(built)
    # a constant equals its int, so it hashes as that int (zero as 0)
    three = LaurentPoly.const(3)
    assert three == 3 and hash(three) == hash(3)
    assert 3 in {three} and three in {3} and len({three, 3}) == 1
    zero = T - T
    assert zero == 0 and hash(zero) == hash(0) and len({zero, 0}) == 1
    assert hash((1 + T) * (1 - T) + T * T - 4) == hash(-3)
    assert LaurentPoly.const(-1) in {-1} and T not in {1}


# -- a reference model: the dict of nonzero terms keyed by exponent triples ----


def model_sum(models, terms):
    """sum of coeff * t^a s^b r^c * models[i] over (coeff, (a, b, c), i)."""
    out = {}
    for coeff, (a, b, c), i in terms:
        for (x, y, z), k in models[i].items():
            e = (x + a, y + b, z + c)
            out[e] = out.get(e, 0) + coeff * k
    return {e: k for e, k in out.items() if k}


def shifted_sum(polys, terms):
    """sum of coeff * t^a s^b r^c * polys[i] over (coeff, (a, b, c), i),
    by the ring's public operations."""
    return sum((c * LaurentPoly.monomial(1, *e) * polys[i]
                for c, e, i in terms), LaurentPoly.zero())


def model_mul(p, q):
    return model_sum([q], [(c, e, 0) for e, c in p.items()])


def model_text(m):
    """The text form, written out from the sorted terms."""
    out = []
    for e, c in sorted(m.items()):
        factors = [n if v == 1 else f"{n}^{v}" for n, v in zip("tsr", e) if v]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        out.append(("- " if c < 0 else "+ ") + "*".join(factors))
    if not out:
        return "0"
    head = ("-" if out[0][0] == "-" else "") + out[0][2:]
    return " ".join([head] + out[1:])


def assert_matches(p, m):
    assert list(p.items()) == sorted(m.items())
    assert len(p) == len(m)
    assert p == LaurentPoly(m) and hash(p) == hash(LaurentPoly(m))
    assert format_poly(p) == model_text(m)
    assert p.is_zero == (not m)
    for _, run in p._runs.values():    # canonical: runs trimmed at both ends
        assert run[0] and run[-1]


# few (s, r) classes and a wide t range, so runs have gaps and cancel
MODELS = st.dictionaries(
    st.tuples(st.integers(-5, 5), st.integers(-1, 1), st.integers(-1, 1)),
    st.integers(-4, 4).filter(bool), max_size=10)
SHIFTS = st.tuples(st.integers(-3, 3), st.integers(-1, 1), st.integers(-1, 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=MODELS, extra=MODELS)
def test_ring_ops_match_the_dict_of_terms_model(data, m, extra):
    # q cancels a drawn subset of p's terms, and adds extra on top
    cancel = data.draw(st.sets(st.sampled_from(sorted(m)) if m
                               else st.nothing()))
    n = model_sum([extra, {e: -m[e] for e in cancel}], [(1, (0, 0, 0), 0),
                                                         (1, (0, 0, 0), 1)])
    p, q = LaurentPoly(m), LaurentPoly(n)
    assert_matches(p, m)
    assert_matches(q, n)
    assert_matches(p + q, model_sum([m, n], [(1, (0, 0, 0), 0),
                                             (1, (0, 0, 0), 1)]))
    assert_matches(p - q, model_sum([m, n], [(1, (0, 0, 0), 0),
                                             (-1, (0, 0, 0), 1)]))
    assert_matches(-p, model_sum([m], [(-1, (0, 0, 0), 0)]))
    assert_matches(p * q, model_mul(m, n))
    assert_matches(p * 3, model_sum([m], [(3, (0, 0, 0), 0)]))
    k = data.draw(st.integers(0, 3))
    power = {(0, 0, 0): 1}
    for _ in range(k):
        power = model_mul(power, m)
    assert_matches(p ** k, power)
    terms = data.draw(st.lists(st.tuples(
        st.integers(-3, 3), SHIFTS, st.integers(0, 1)), max_size=6))
    assert_matches(shifted_sum((p, q), terms), model_sum([m, n], terms))
    # equal values by different paths
    assert p + q == q + p and hash(p + q) == hash(q + p)
    assert p * q == q * p and hash(p * q) == hash(q * p)
    swapped = shifted_sum((q, p), [(c, e, 1 - i) for c, e, i in terms[::-1]])
    assert swapped == shifted_sum((p, q), terms)
    assert hash(swapped) == hash(shifted_sum((p, q), terms))


def model_mat_mul(a, b):
    dim = len(a)
    return [[model_sum([model_mul(a[i][k], b[k][j]) for k in range(dim)],
                       [(1, (0, 0, 0), k) for k in range(dim)])
             for j in range(dim)] for i in range(dim)]


# coefficients on either side of each packed digit width (8, 16, 32 and 64
# bits) and far past the widest, beside small ones
EDGES = st.builds(lambda base, off, sign: sign * (base + off),
                  st.sampled_from((2 ** 7 - 1, 2 ** 7, 2 ** 15, 2 ** 31,
                                   2 ** 63, 2 ** 64, 2 ** 100)),
                  st.integers(-1, 1), st.sampled_from((1, -1)))
ENTRIES = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-1, 1), st.integers(-1, 1)),
    st.one_of(st.integers(-3, 3).filter(bool), EDGES), max_size=6)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4))
def test_products_match_the_dict_of_terms_model(data, dim):
    # entries span several (s, r) classes and negative t, and may be zero
    a, b = ([[data.draw(ENTRIES) for _ in range(dim)] for _ in range(dim)]
            for _ in range(2))
    if dim > 1 and data.draw(st.booleans()):
        # a[i][1] = a[i][0] and b[1][j] = -(one class of b[0][j]), so the
        # sum over k cancels that class's products to zero
        for row in a:
            row[1] = row[0]
        for j in range(dim):
            classes = sorted({e[1:] for e in b[0][j]})
            keep = data.draw(st.sampled_from(classes)) if classes else None
            b[1][j] = {e: -c for e, c in b[0][j].items() if e[1:] == keep}
    ma, mb = (Matrix.from_rows([[LaurentPoly(x) for x in row] for row in m])
              for m in (a, b))
    product = mat_mul(ma, mb)
    for i, row in enumerate(model_mat_mul(a, b)):
        for j, want in enumerate(row):
            assert_matches(product[i, j], want)
    p, q = ma[0, 0], mb[0, 0]
    assert_matches(p * q, model_mul(a[0][0], b[0][0]))
    pair, one = [a[0][0], b[0][0]], {(0, 0, 0): 1}
    assert_matches(p + q, model_sum(pair, [(1, (0, 0, 0), 0),
                                           (1, (0, 0, 0), 1)]))
    assert_matches(p - q, model_sum(pair, [(1, (0, 0, 0), 0),
                                           (-1, (0, 0, 0), 1)]))
    assert_matches(-p, model_sum(pair, [(-1, (0, 0, 0), 0)]))
    assert_matches(3 - p, model_sum([one, a[0][0]], [(3, (0, 0, 0), 0),
                                                     (-1, (0, 0, 0), 1)]))
    k = data.draw(st.integers(0, 3))
    power = {(0, 0, 0): 1}
    for _ in range(k):
        power = model_mul(power, a[0][0])
    assert_matches(p ** k, power)


@pytest.mark.parametrize("cancel", [
    (0, 0, 0),     # the run's first entry
    (3, 0, 0),     # its last entry
    (1, 0, 0),     # an interior entry
])
def test_cancellation_trims_the_run(cancel):
    m = {(0, 0, 0): 2, (1, 0, 0): -1, (2, 0, 0): 5, (3, 0, 0): 1,
         (0, 1, 0): 7}
    p = LaurentPoly(m)
    q = p - LaurentPoly({cancel: m[cancel]})
    assert_matches(q, {e: c for e, c in m.items() if e != cancel})
    # the whole (s, r) = (0, 0) class cancels away
    rest = p - LaurentPoly({e: c for e, c in m.items() if e[1:] == (0, 0)})
    assert_matches(rest, {(0, 1, 0): 7})
    assert list(rest._runs) == [(1, 0)]
    assert_matches(p - p, {})
    # a zero coefficient places no term
    assert_matches(LaurentPoly({(1, 0, 0): 0}), {})
    assert_matches(LaurentPoly({**m, (5, 0, 0): 0, (0, 2, 0): 0}), m)


@pytest.mark.parametrize("c", (0, 1, -1, 7, -2 ** 70))
def test_monomial_is_the_one_term_polynomial(c):
    for e in ((0, 0, 0), (-3, 2, -1), (5, -4, 3)):
        assert_matches(LaurentPoly.monomial(c, *e), {e: c} if c else {})


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 5),
       bits=st.sampled_from((64, 136)), big=st.booleans())
def test_split_rows_unpacks_columns_packed_by_rows(data, dim, bits, big):
    """Column j packed by rows into t, each class of
    sum_i A_ij(t^dim, s, r) * t^i as one packed run, splits into the entries
    of A, negative exponents and digits near the width's limit included."""
    scale = 1 << bits - 4 if big else 1    # |coefficient| <= 2^(bits-2)
    entries = [[{e: x * scale for e, x in data.draw(MODELS).items()}
                for _ in range(dim)] for _ in range(dim)]
    cols = [LaurentPoly({(et * dim + i, es, er): x
                         for i in range(dim)
                         for (et, es, er), x in entries[i][j].items()})
            for j in range(dim)]
    pack = digit_codec(bits)[0]
    rows = split_rows([{key: (lo, pack(run))
                        for key, (lo, run) in p._runs.items()}
                       for p in cols], bits, dim)
    assert len(rows) == dim and all(len(row) == dim for row in rows)
    for i in range(dim):
        for j in range(dim):
            assert_matches(rows[i][j], entries[i][j])


def test_accumulate_drops_a_class_that_cancels():
    """A class whose packed sum cancels to 0 leaves sums, whether the run
    added starts at or above the class's t_lo or below it."""
    sums: dict = {}
    accumulate(sums, (0, 0), 2, 5, 64)
    accumulate(sums, (1, 0), 3, 1, 64)
    accumulate(sums, (0, 0), 2, -5, 64)
    assert sums == {(1, 0): [3, 1]}
    accumulate(sums, (1, 0), 2, -(1 << 64), 64)    # -t^3, one digit up
    assert sums == {}


def test_a_sparse_class_costs_its_t_span():
    """1 + t^(2^20) is one run of 2^20 + 1 coefficients."""
    big = 2 ** 20
    start = time.perf_counter()
    p = 1 + T ** big
    total, square = p + p, p * p
    text = format_poly(square)
    assert time.perf_counter() - start < 1.0
    m = {(0, 0, 0): 1, (big, 0, 0): 1}
    assert_matches(p, m)
    assert_matches(total, model_sum([m], [(2, (0, 0, 0), 0)]))
    assert_matches(square, model_mul(m, m))
    assert text == f"1 + 2*t^{big} + t^{2 * big}" == model_text(model_mul(m, m))


def test_non_integral_numbers_are_refused():
    """A float, even one equal to an int, and a bool are refused as a
    coefficient or an exponent rather than truncated, and as an operand of
    the ring; neither compares equal to a polynomial."""
    for make, bad in ((lambda: LaurentPoly({(0.5, 0, 0): 2}), 0.5),
                      (lambda: LaurentPoly({(0, 0, 0): 2.7}), 2.7),
                      (lambda: LaurentPoly({(0, 0, 0): 2.0}), 2.0),
                      (lambda: LaurentPoly({(True, 0, 0): 1}), True),
                      (lambda: LaurentPoly({(0, 0, 0): True}), True),
                      (lambda: LaurentPoly.monomial(1.9, 2), 1.9),
                      (lambda: LaurentPoly.monomial(1, 0, 0, 1.0), 1.0)):
        with pytest.raises(ValueError, match=f"coefficient or exponent "
                           f"{bad!r} is not an integer"):
            make()
    assert LaurentPoly({(1, 0, 0): 2}) == 2 * T
    one = LaurentPoly.one()
    for make, bad in ((lambda: one + 1.5, "float"),
                      (lambda: one + True, "bool"),
                      (lambda: True - one, "bool"),
                      (lambda: one * False, "bool"),
                      (lambda: Matrix.from_rows([[True]]), "bool")):
        with pytest.raises(TypeError,
                           match=f"cannot coerce {bad} into the Laurent ring"):
            make()
    assert one == 1 and one != 1.0 and one != True and one not in [True]
    assert not (one == True) and not (True == one)


def test_poly_json_refuses_non_integers():
    for item, bad in (({"e": [0, 0, 0], "c": 2.9}, 2.9),
                      ({"e": [1.5, 0, 0], "c": "2"}, 1.5),
                      ({"e": [0, 0, 0], "c": True}, True)):
        with pytest.raises(ValueError, match=f"{bad!r} is not an integer"):
            poly_from_json([item])
    # a coefficient is written as a decimal string; an int is read too
    assert poly_from_json([{"e": [1, 0, 0], "c": "-3"}]) == \
        poly_from_json([{"e": [1, 0, 0], "c": -3}]) == -3 * T
    with pytest.raises(ValueError):
        poly_from_json([{"e": [0, 0, 0], "c": "2.9"}])


@pytest.mark.parametrize("data", (
    [{"e": 5, "c": "1"}], [[1, 0, 0]], [{"c": "1"}], [{"e": [0, 0, 0]}],
    {"e": [0, 0, 0], "c": "1"}, "1", None),
    ids=("exponent-not-a-list", "term-not-an-object", "no-exponent",
         "no-coefficient", "object-not-a-list", "string", "null"))
def test_poly_json_refuses_a_malformed_shape(data):
    """A shape other than a list of {"e": [...], "c": ...} terms is refused
    with ValueError, as the other refusals are, not with whatever the
    failed access raises."""
    message = "not a list of terms|is not of the form"
    with pytest.raises(ValueError, match=message):
        poly_from_json(data)
    with pytest.raises(ValueError, match=message):
        mat_from_json({"dim": 1, "rows": [[data]]})


@pytest.mark.parametrize("data", (
    [[[]]], {"dim": 1}, {"rows": [[[]]]},
    {"dim": 1, "rows": [5]}, {"dim": 1, "rows": "[[[]]]"}),
    ids=("list-not-an-object", "no-rows", "no-dim", "row-not-a-list",
         "rows-a-string"))
def test_matrix_json_refuses_a_malformed_shape(data):
    with pytest.raises(ValueError, match="is not of the form"):
        mat_from_json(data)


def test_matrix_json_refuses_a_non_integer_dim():
    for dim in (1.5, 1.0, True):
        with pytest.raises(ValueError, match=f"dim {dim!r} is not an integer"):
            mat_from_json({"dim": dim, "rows": [[[]]]})


def test_poly_json_refuses_an_exponent_not_of_three_entries():
    """An exponent is three entries; a fourth is refused, not dropped."""
    for e in ([1, 0, 0, 5], [1, 0], []):
        item = {"e": e, "c": "2"}
        with pytest.raises(ValueError, match=re.escape(
                f"exponent {e} does not have 3 entries")):
            poly_from_json([item])
        with pytest.raises(ValueError, match="does not have 3 entries"):
            mat_from_json({"dim": 1, "rows": [[[item]]]})


def test_matrix_refuses_ragged_rows():
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    for make in (lambda: Matrix(2, ((one, zero),)),
                 lambda: Matrix(2, ((one, zero), (zero,))),
                 lambda: Matrix.from_rows([[1, 0], [0]])):
        with pytest.raises(DimMismatch, match="ragged rows for dim 2"):
            make()
