"""Exact arithmetic in the Laurent ring Z[t^+-1, s^+-1, r^+-1] and matrices over it.

A polynomial is stored as dense runs in t, one per (s, r) class: a dict
{(e_s, e_r): (t_lo, coeffs)} where coeffs is a tuple of integers, the
coefficient of t^(t_lo + i) s^e_s r^e_r at position i. The canonical form
trims every run so its first and last entries are nonzero (interior zeros
are allowed) and never stores a class with no nonzero coefficient, so equal
elements compare and hash equal; items() and the text and JSON forms walk
the nonzero terms in sorted exponent order (e_t, e_s, e_r), so equal
elements also serialize identically. The constructor lays each class out
as one run, so memory and time are O(t-span) per class. A word image's
t-span grows by at most one per unit letter, so it is bounded by the
word's spelled-out length, which nothing caps: a one-letter power such as
s1^2000000000 parses to one letter.

Packed runs are one digit codec (digit_bits, digit_codec), and a packed
matrix has one layout: a run becomes the int sum(c_i * 2^(B*i)), exact
while every digit stays in [-2^(B-1), 2^(B-1)), and column j of an m-row
matrix A is, per (s, r) class, the packed run of sum_i A_ij(t^m) * t^i,
its rows interleaved into t. accumulate adds a packed run into its class
by one shift, and split_rows is the one unpack, row i's run every m-th
digit. Sums and products are one routine, _products, by this Kronecker
substitution: a product of polynomials is the 1 x 1 case, p +- q the
product of the row (p, q) and the column (1, +-1), and -p that of [[p]]
and [[-1]]. The digit width B is bounded per call from the operands'
largest coefficients, their class counts and their nonzero terms per run,
so every output coefficient fits a digit. rep's symbolic fold keeps its
columns in the same layout under its own bound, adds them by accumulate,
widens its digits by repacked and ends in split_rows: rep knows the
action format, and only this module the digit format.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Mapping

from .errors import DimMismatch, ZeroAssignment

Exponents = tuple[int, int, int]

_VARS = ("t", "s", "r")


class LaurentPoly:
    """Immutable Laurent polynomial in t, s, r over Z."""

    __slots__ = ("_runs",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        classes: dict = {}    # (e_s, e_r) -> {e_t: coefficient}
        for (et, es, er), c in (terms or {}).items():
            c, et, es, er = integer(c), integer(et), integer(es), integer(er)
            if c:
                classes.setdefault((es, er), {})[et] = c
        self._runs = {}
        for key, coeffs in classes.items():
            lo = min(coeffs)
            run = [0] * (max(coeffs) - lo + 1)
            for et, c in coeffs.items():
                run[et - lo] = c
            self._runs[key] = lo, tuple(run)

    # construction ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def monomial(cls, c: int = 1, et: int = 0, es: int = 0, er: int = 0) -> "LaurentPoly":
        return cls({(et, es, er): c})

    # views ---------------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, int]]:
        """The nonzero terms (exponents, coeff) in sorted exponent order."""
        return iter(sorted([((lo + i, es, er), c)
                            for (es, er), (lo, run) in self._runs.items()
                            for i, c in enumerate(run) if c]))

    def __len__(self) -> int:
        return sum(len(run) - run.count(0) for _, run in self._runs.values())

    @property
    def is_zero(self) -> bool:
        return not self._runs

    # ring ops ------------------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return _products(((self, _coerce(other)),), _PLUS)[0][0]

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _products(((self,),), ((_MINUS_ONE,),))[0][0]

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return _products(((self, _coerce(other)),), _MINUS)[0][0]

    def __rsub__(self, other: int) -> "LaurentPoly":
        return _products(((_coerce(other), self),), _MINUS)[0][0]

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return _products(((self,),), ((_coerce(other),),))[0][0]

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            return self.inverse_unit() ** (-k)
        acc = _ONE
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def inverse_unit(self) -> "LaurentPoly":
        """Inverse of a +-monomial; raises ValueError otherwise."""
        if len(self._runs) == 1:
            ((es, er), (lo, run)), = self._runs.items()
            if run in ((1,), (-1,)):
                return _wrap({(-es, -er): (-lo, run)})
        raise ValueError("not a unit: " + format_poly(self))

    # comparison -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is int:
            other = _coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        """A constant hashes as the int it equals, so p == 3 implies
        hash(p) == hash(3)."""
        runs = self._runs
        if not runs:
            return hash(0)
        if runs.keys() == {(0, 0)} and runs[0, 0][0] == 0 \
                and len(runs[0, 0][1]) == 1:
            return hash(runs[0, 0][1][0])
        return hash(frozenset(runs.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


def _wrap(runs: dict) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._runs = runs
    return p


def integer(x, what: str = "coefficient or exponent") -> int:
    """x, refused unless an int: bool is an int too, and a float may equal one."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _coerce(x: "LaurentPoly | int") -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if type(x) is int:
        return LaurentPoly({(0, 0, 0): x})
    raise TypeError(f"cannot coerce {type(x).__name__} into the Laurent ring")


def _trimmed(lo: int, run) -> tuple[int, tuple[int, ...]] | None:
    """The run from t^lo with its zero ends cut off, as (t_lo, coeffs), or
    None when every entry is 0."""
    if run[0] and run[-1]:
        return lo, tuple(run)
    end = len(run)
    while end and not run[end - 1]:
        end -= 1
    if not end:
        return None
    start = 0
    while not run[start]:
        start += 1
    return lo + start, tuple(run[start:end])


# -- packed runs -----------------------------------------------------------------
#
# Kronecker substitution: a run of integers c_i packs into the one integer
# sum(c_i * 2^(B*i)), so runs add and multiply as big ints. While every
# digit stays in [-2^(B-1), 2^(B-1)), the packed int determines the run.
# Digits go through bytes: a run is packed as B-bit two's complement digits
# (array, or int.to_bytes past 64 bits), and xor-ing the top bit of each
# digit offsets it by 2^(B-1), so the packed int less that offset is the
# run's sum; unpacking adds the offset back and reads the digits as signed
# again (memoryview.cast, or byte slices past 64 bits).

_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}    # array typecodes by bits


def digit_bits(bound: int) -> int:
    """The digit width B whose balanced digits hold every integer of
    absolute value at most bound: bound's bit length plus one, rounded up
    to 8, 16, 32 or 64, or beyond that to whole bytes."""
    bits = bound.bit_length() + 1
    if bits <= 64:
        return max(8, 1 << (bits - 1).bit_length())
    return -(-bits // 8) * 8


@lru_cache(maxsize=64)    # a long power repacks through many widths
def digit_codec(bits: int):
    """(pack, unpack) for digits of B = bits bits, a digit_bits width.
    pack(run) is sum(c_i * 2^(B*i)) over a run of integers c_i; unpack(lo,
    total) is the run that a nonzero total packs from t^lo, as (t_lo,
    digits), lo moved past the zero low digits and the last digit nonzero.
    Every digit must be of absolute value below 2^(B-1)."""
    width, code, half = bits // 8, _CODES.get(bits), 1 << bits - 1
    order = sys.byteorder
    top = half.to_bytes(width, order)

    def offset(n):    # 2^(B-1) in each of n digits
        return int.from_bytes(top * n, order)

    def pack(run):
        data = array(code, run) if code else b"".join(
            c.to_bytes(width, order, signed=True) for c in run)
        o = offset(len(run))
        return (int.from_bytes(data, order) ^ o) - o

    def unpack(lo, total):
        if -half < total < half:    # one digit, at place 0
            return lo, (total,)
        first = ((total & -total).bit_length() - 1) // bits
        total >>= bits * first
        # |digit| < 2^(B-1): a top nonzero digit at place m puts |total| in
        # (2^(Bm-1), 2^(B(m+1)-1)), so there are m + 1 digits
        n = abs(total).bit_length() // bits + 1
        o = offset(n)
        data = ((total + o) ^ o).to_bytes(n * width, order)
        digits = memoryview(data).cast(code).tolist() if code else [
            int.from_bytes(data[i:i + width], order, signed=True)
            for i in range(0, n * width, width)]
        return lo + first, tuple(digits)

    return pack, unpack


def accumulate(sums: dict, key, lo: int, x: int, bits: int) -> None:
    """Add the packed run x != 0 from t^lo into sums[key] = [t_lo, total],
    the class's packed sum in digits of bits bits, aligned by one shift: of
    x above t_lo, or of the total above lo, which becomes its t_lo. A class
    whose sum cancels to 0 is dropped, so sums holds no zero total."""
    acc = sums.get(key)
    if acc is None:
        sums[key] = [lo, x]
        return
    if lo >= acc[0]:
        acc[1] += x << bits * (lo - acc[0])
    else:
        acc[1] = (acc[1] << bits * (acc[0] - lo)) + x
        acc[0] = lo
    if not acc[1]:
        del sums[key]


def repacked(cols, bits: int):
    """Columns of packed classes {(e_s, e_r): (lo, total)} in digits of
    bits bits, repacked, with their largest coefficient M: unpacked exactly
    and packed again in digits that hold M^2, and at least 64 bits, so a
    fold gets as many bits of growth again before the next repack.
    Returns (columns, bits, M)."""
    unpack = digit_codec(bits)[1]
    runs = [{key: unpack(lo, x) for key, (lo, x) in col.items()}
            for col in cols]
    bound = max(max(max(run), -min(run))
                for col in runs for _, run in col.values())
    bits = max(64, digit_bits(bound * bound))
    pack = digit_codec(bits)[0]
    return [{key: (lo, pack(run)) for key, (lo, run) in col.items()}
            for col in runs], bits, bound


def split_rows(cols, bits: int, dim: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The rows of the dim x len(cols) matrix A whose column j is cols[j]
    packed by rows into t: a dict {(e_s, e_r): (lo, total)}, total packing
    (digit_codec) the run from t^lo of sum_i A_ij(t^dim, s, r) * t^i. Digit
    k of a class is the coefficient of t^e_t s^e_s r^e_r in A_ij for e_t, i
    = divmod(lo + k, dim), so row i's run is every dim-th digit. It is the
    one unpack of a packed matrix: of rep's fold and of _products."""
    unpack = digit_codec(bits)[1]
    rows = [[_ZERO] * len(cols) for _ in range(dim)]
    for j, col in enumerate(cols):
        for key, (lo, total) in col.items():
            lo, digits = unpack(lo, total)
            for k in range(min(dim, len(digits))):
                et, i = divmod(lo + k, dim)
                run = _trimmed(et, digits[k::dim])
                if run:
                    if rows[i][j] is _ZERO:
                        rows[i][j] = _wrap({})
                    rows[i][j]._runs[key] = run
    return tuple(map(tuple, rows))


def _products(a, b) -> tuple[tuple[LaurentPoly, ...], ...]:
    """The product of an m x n and an n x p array of LaurentPoly, by
    Kronecker substitution in the layout of rep's fold, the rows
    interleaved into t: column k of a is packed (digit_codec) per class as
    the run of sum_i a_ik(t^m, s, r) * t^i, each entry's run spread to
    every m-th digit and accumulated i digits up; column j of the product
    is sum_k b_kj(t^m) * col_k, the packed ints of each class pair
    multiplied and accumulated per target class; split_rows unpacks it.

    No coefficient of sum_k a[i][k] * b[k][j] exceeds bound = n *
    min(classes) * min(nonzero terms per run) * max|a| * max|b|, each count
    the largest over an entry of a or of b, and the rows of a column hold
    distinct digits, so the digit_bits width of bound holds every input
    and output coefficient."""
    m = len(a)
    stats = []
    for x in (a, b):
        polys = [p._runs for row in x for p in row]
        runs = [run for p in polys for _, run in p.values()]
        if not runs:
            return tuple((_ZERO,) * len(b[0]) for _ in a)
        stats.append((max(map(len, polys)),
                      max(len(run) - run.count(0) for run in runs),
                      max(max(map(max, runs)), -min(map(min, runs)))))
    (ca, na, ma), (cb, nb, mb) = stats
    bits = digit_bits(len(b) * min(ca, cb) * min(na, nb) * ma * mb)
    pack = digit_codec(bits)[0]

    def packed(run):    # the run of p(t^m): coefficient e at digit e * m
        spread = [0] * (len(run) * m - m + 1)
        spread[::m] = run
        return pack(spread)

    cols = []
    for col in zip(*a):
        sums: dict = {}    # class -> [t_lo, packed sum]
        for i, x in enumerate(col):
            for key, (lo, run) in x._runs.items():
                accumulate(sums, key, lo * m + i, packed(run), bits)
        cols.append(sums)
    out = []
    for col_b in zip(*b):
        sums = {}
        for col, y in zip(cols, col_b):
            for (sb, rb), (lb, run) in y._runs.items():
                v, lb = packed(run), lb * m
                for (sa, ra), (la, x) in col.items():
                    accumulate(sums, (sa + sb, ra + rb), la + lb, x * v, bits)
        out.append(sums)
    return split_rows(out, bits, m)


_ZERO = _wrap({})
_ONE = _wrap({(0, 0): (0, (1,))})
_MINUS_ONE = _wrap({(0, 0): (0, (-1,))})
_PLUS, _MINUS = ((_ONE,), (_ONE,)), ((_ONE,), (_MINUS_ONE,))    # sum columns

T = LaurentPoly.monomial(1, 1, 0, 0)
S = LaurentPoly.monomial(1, 0, 1, 0)
R = LaurentPoly.monomial(1, 0, 0, 1)
T_INV = LaurentPoly.monomial(1, -1, 0, 0)
S_INV = LaurentPoly.monomial(1, 0, -1, 0)


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """Rational evaluation point; every coordinate must be nonzero.

    r defaults to 1 so two-variable images evaluate without mentioning it.
    """

    t: Fraction
    s: Fraction
    r: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("t", "s", "r"):
            v = Fraction(getattr(self, name))
            if v == 0:
                raise ZeroAssignment(f"assignment sets {name}=0")
            object.__setattr__(self, name, v)


def eval_numerators(polys: list[LaurentPoly], a: Assignment) -> tuple[list[int], int]:
    """Values of polys at a as integer numerators over one common denominator.

    With lo <= 0 <= hi the range of t's exponents over all polys, t^e is
    n^(e-lo) d^(hi-e) / (n^-lo d^hi) for t = n/d, read from one table per
    variable; likewise s and r. The denominator may be negative.
    """
    spans = [((lo, lo + len(run) - 1), (es, es), (er, er))
             for p in polys for (es, er), (lo, run) in p._runs.items()]
    lo = [min([0] + [x[v][0] for x in spans]) for v in range(3)]
    hi = [max([0] + [x[v][1] for x in spans]) for v in range(3)]
    tables, den = [], 1
    for x, l, h in zip((a.t, a.s, a.r), lo, hi):
        n, d = x.numerator, x.denominator
        tables.append([n ** (e - l) * d ** (h - e) for e in range(l, h + 1)])
        den *= n ** -l * d ** h
    (tt, ts, tr), (lt, ls, lr) = tables, lo
    nums = [sum(sum(map(mul, run, tt[lo - lt:lo - lt + len(run)])) * ts[es - ls] * tr[er - lr]
                for (es, er), (lo, run) in p._runs.items()) for p in polys]
    return nums, den


def lp_eval(p: LaurentPoly, a: Assignment) -> Fraction:
    (num,), den = eval_numerators([p], a)
    return Fraction(num, den)


# -- text and JSON forms ------------------------------------------------------


def _format_term(exp: Exponents, coeff: int) -> str:
    parts = []
    for name, e in zip(_VARS, exp):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    mag = abs(coeff)
    if not parts:
        return str(mag)
    if mag != 1:
        parts.insert(0, str(mag))
    return "*".join(parts)


def format_poly(p: LaurentPoly) -> str:
    if p.is_zero:
        return "0"
    out = []
    for i, (exp, coeff) in enumerate(p.items()):
        body = _format_term(exp, coeff)
        if i == 0:
            out.append("-" + body if coeff < 0 else body)
        else:
            out.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(out)


def poly_to_json(p: LaurentPoly) -> list[dict]:
    return [{"e": list(exp), "c": str(coeff)} for exp, coeff in p.items()]


def poly_from_json(data: list) -> LaurentPoly:
    """The polynomial that poly_to_json wrote: a list of terms
    {"e": [e_t, e_s, e_r], "c": coefficient}. Any other shape is refused
    with ValueError."""
    if type(data) is not list:
        raise ValueError(f"polynomial JSON is a {type(data).__name__}, "
                         "not a list of terms")
    terms: dict[Exponents, int] = {}
    for item in data:
        if type(item) is not dict or type(item.get("e")) is not list \
                or "c" not in item:
            raise ValueError(f"term {item!r} is not of the form "
                             '{"e": [e_t, e_s, e_r], "c": coefficient}')
        key, c = tuple(item["e"]), item["c"]
        if len(key) != 3:
            raise ValueError(f"exponent {list(key)} does not have 3 entries")
        if key in terms:
            raise ValueError(f"exponent {list(key)} repeated")
        # poly_to_json writes a coefficient as a decimal string
        terms[key] = int(c) if type(c) is str else c
    return LaurentPoly(terms)


# -- matrices ------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Square matrix over the Laurent ring, rows of equal length."""

    dim: int
    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.dim or any(len(r) != self.dim for r in self.rows):
            raise DimMismatch(f"ragged rows for dim {self.dim}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[LaurentPoly | int]]) -> "Matrix":
        frozen = tuple(tuple(_coerce(x) for x in row) for row in rows)
        return cls(len(frozen), frozen)

    @classmethod
    def identity(cls, dim: int) -> "Matrix":
        return cls(dim, tuple(
            tuple(_ONE if i == j else _ZERO for j in range(dim))
            for i in range(dim)))

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        return self.rows[ij[0]][ij[1]]

    @property
    def is_identity(self) -> bool:
        return self == Matrix.identity(self.dim)

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.dim != b.dim:
        raise DimMismatch(f"{a.dim} x {a.dim} times {b.dim} x {b.dim}")
    return Matrix(a.dim, _products(a.rows, b.rows))


def mat_eval(m: Matrix, a: Assignment) -> tuple[tuple[Fraction, ...], ...]:
    nums, den = eval_numerators([x for row in m.rows for x in row], a)
    return tuple(tuple(Fraction(x, den) for x in nums[i:i + m.dim])
                 for i in range(0, len(nums), m.dim))


def mat_to_text(m: Matrix) -> str:
    return "\n".join(",".join(format_poly(x) for x in row) for row in m.rows)


def mat_to_json(m: Matrix) -> dict:
    return {"dim": m.dim,
            "rows": [[poly_to_json(x) for x in row] for row in m.rows]}


def mat_from_json(data: dict) -> Matrix:
    """The matrix that mat_to_json wrote: {"dim": n, "rows": [[polynomial,
    ...], ...]}. Any other shape is refused with ValueError."""
    rows = data.get("rows") if type(data) is dict else None
    if type(rows) is not list or "dim" not in data \
            or any(type(row) is not list for row in rows):
        raise ValueError('matrix JSON is not of the form '
                         '{"dim": n, "rows": [[polynomial, ...], ...]}')
    rows = tuple(tuple(poly_from_json(x) for x in row) for row in rows)
    return Matrix(integer(data["dim"], "dim"), rows)


# -- exact rational linear algebra (used by invariant checks) ------------------


def _eliminate(rows: Iterable[Iterable[Fraction]]) -> tuple[int, Fraction]:
    """Forward elimination: the rank, and the signed product of the pivots."""
    m = [list(map(Fraction, r)) for r in rows]
    ncols = len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, ncols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank, det


def rational_det(rows: Iterable[Iterable[Fraction]]) -> Fraction:
    rows = list(rows)
    rank, det = _eliminate(rows)
    return det if rank == len(rows) else Fraction(0)


def rational_rank(rows: Iterable[Iterable[Fraction]]) -> int:
    return _eliminate(rows)[0]
