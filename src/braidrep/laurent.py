"""Exact arithmetic in the Laurent ring Z[t^+-1, s^+-1, r^+-1] and matrices over it.

A polynomial is stored as dense runs in t, one per (s, r) class: a dict
{(e_s, e_r): (t_lo, coeffs)} where coeffs is a tuple of integers, the
coefficient of t^(t_lo + i) s^e_s r^e_r at position i. The canonical form
trims every run so its first and last entries are nonzero (interior zeros
are allowed) and never stores a class with no nonzero coefficient, so equal
elements compare and hash equal; items() and the text and JSON forms walk
the nonzero terms in sorted exponent order (e_t, e_s, e_r), so equal
elements also serialize identically. A shift by t^a s^b r^c rewrites keys
and offsets, and a sum adds runs as slices, so memory and time are
O(t-span) per class. A word image's t-span grows by at most one per unit
letter, so it is bounded by the word's spelled-out length, which nothing
caps: a one-letter power such as s1^2000000000 parses to one letter.

Products of polynomials and of matrices are one routine, _products, by
Kronecker substitution: a run becomes the int sum(c_i * 2^(B*i)), so the
product of two runs is one big-int product, and each entry of a matrix
product is unpacked from its per-class sums once. The digit width B is
bounded per call from the operands' largest coefficients, their class
counts and their nonzero terms per run, so every output coefficient fits
a balanced base-2^B digit.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping

from .errors import DimMismatch, ZeroAssignment

Exponents = tuple[int, int, int]

_VARS = ("t", "s", "r")


class LaurentPoly:
    """Immutable Laurent polynomial in t, s, r over Z."""

    __slots__ = ("_runs", "_hash")

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        self._runs = monomial_sum((_ONE,), [
            (int(c), (int(et), int(es), int(er)), 0)
            for (et, es, er), c in (terms or {}).items()])._runs
        self._hash: int | None = None

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
        return iter(sorted(_term_list(self)))

    def __len__(self) -> int:
        return sum(len(run) - run.count(0) for _, run in self._runs.values())

    @property
    def is_zero(self) -> bool:
        return not self._runs

    # ring ops ------------------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return monomial_sum((self, _coerce(other)),
                            ((1, (0, 0, 0), 0), (1, (0, 0, 0), 1)))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return monomial_sum((self,), ((-1, (0, 0, 0), 0),))

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return monomial_sum((self, _coerce(other)),
                            ((1, (0, 0, 0), 0), (-1, (0, 0, 0), 1)))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return monomial_sum((_coerce(other), self),
                            ((1, (0, 0, 0), 0), (-1, (0, 0, 0), 1)))

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
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        """A constant hashes as the int it equals, so p == 3 implies
        hash(p) == hash(3)."""
        if self._hash is None:
            runs = self._runs
            if not runs:
                self._hash = hash(0)
            elif runs.keys() == {(0, 0)} and runs[0, 0][0] == 0 \
                    and len(runs[0, 0][1]) == 1:
                self._hash = hash(runs[0, 0][1][0])
            else:
                self._hash = hash(frozenset(runs.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


def _wrap(runs: dict) -> LaurentPoly:
    p = LaurentPoly.__new__(LaurentPoly)
    p._runs = runs
    p._hash = None
    return p


def _term_list(p: LaurentPoly) -> list[tuple[Exponents, int]]:
    """The nonzero terms (exponents, coeff), class by class, unsorted."""
    return [((lo + i, es, er), c) for (es, er), (lo, run) in p._runs.items()
            for i, c in enumerate(run) if c]


def _coerce(x: "LaurentPoly | int") -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({(0, 0, 0): x})
    raise TypeError(f"cannot coerce {type(x).__name__} into the Laurent ring")


def monomial_sum(polys, terms) -> LaurentPoly:
    """sum of coeff * t^a s^b r^c * polys[i] over terms (coeff, (a, b, c), i).
    The ring's term loop: sums, differences, negation, the constructor and
    the symbolic fold come here; products and matrix products go through
    _products instead, which multiplies whole runs. Each class of polys[i]
    moves to (e_s + b, e_r + c) with its run offset by a, and is added into
    that class's accumulator as one slice; the sums are then trimmed. A
    single term only rewrites keys and offsets (and scales the runs)."""
    if len(terms) == 1:
        (coeff, (a, b, c), i), = terms
        runs = polys[i]._runs
        if not runs or not coeff:
            return _ZERO
        if coeff == 1:
            return _wrap({(s + b, r + c): (lo + a, run)
                          for (s, r), (lo, run) in runs.items()})
        return _wrap({(s + b, r + c): (lo + a, tuple(
            map(neg, run) if coeff == -1 else [coeff * x for x in run]))
            for (s, r), (lo, run) in runs.items()})
    out: dict = {}    # class -> [t_lo, coefficient list]
    for coeff, (a, b, c), i in terms:
        for (s, r), (lo, run) in polys[i]._runs.items():
            key = s + b, r + c
            lo += a
            cur = out.get(key)
            if cur is None:
                out[key] = [lo, list(run) if coeff == 1 else list(
                    map(neg, run)) if coeff == -1 else [coeff * x for x in run]]
                continue
            start, acc = lo - cur[0], cur[1]
            if start < 0:
                acc[:0] = [0] * -start
                cur[0], start = lo, 0
            end = start + len(run)
            if end > len(acc):
                acc += [0] * (end - len(acc))
            if coeff == 1:
                acc[start:end] = map(add, acc[start:end], run)
            elif coeff == -1:
                acc[start:end] = map(sub, acc[start:end], run)
            else:
                acc[start:end] = [x + coeff * y
                                  for x, y in zip(acc[start:end], run)]
    runs = {}
    for key, (lo, acc) in out.items():
        if not (acc[0] and acc[-1]):
            if not any(acc):
                continue
            while not acc[-1]:
                acc.pop()
            i = 0
            while not acc[i]:
                i += 1
            lo, acc = lo + i, acc[i:]
        runs[key] = (lo, tuple(acc))
    return _wrap(runs) if runs else _ZERO


def _products(a, b) -> list[list[LaurentPoly]]:
    """The product of two square arrays of LaurentPoly, by Kronecker
    substitution: each class run (t_lo, coeffs) is packed into the int
    sum(c_i * 2^(B*i)), the packed ints of each class pair are multiplied,
    the products are added per target class, aligned by t_lo, and each sum
    is unpacked once into balanced base-2^B digits and trimmed.

    No coefficient of sum_k a[i][k] * b[k][j] exceeds bound = dim *
    min(classes) * min(nonzero terms per run) * max|a| * max|b|, each count
    the largest over an entry of a or of b. So digits in [-2^(B-1), 2^(B-1))
    hold every input and output coefficient when B is bound's bit length
    plus one, rounded up to 8, 16, 32 or 64, or beyond that to whole bytes.
    Digits go through bytes: a run is packed as B-bit two's complement
    digits (array, or int.to_bytes past 64 bits), and xor-ing the top bit
    of each digit offsets it by 2^(B-1), so the packed int less that offset
    is the run's sum; unpacking adds the offset back and reads the digits
    as signed again (memoryview.cast, or byte slices past 64 bits)."""
    dim, order = len(a), sys.byteorder
    stats = []
    for m in (a, b):
        polys = [x._runs for row in m for x in row]
        runs = [run for p in polys for _, run in p.values()]
        if not runs:
            return [[_ZERO] * dim for _ in range(dim)]
        stats.append((max(map(len, polys)),
                      max(len(run) - run.count(0) for run in runs),
                      max(max(max(run), -min(run)) for run in runs)))
    (ca, na, ma), (cb, nb, mb) = stats
    bound = dim * min(ca, cb) * min(na, nb) * ma * mb
    width = (bound.bit_length() + 8) // 8    # bytes of B, bit_length + 1
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    bits, code = 8 * width, {1: "b", 2: "h", 4: "i", 8: "q"}.get(width)
    top = (1 << (bits - 1)).to_bytes(width, order)

    def offset(n):    # 2^(B-1) in each of n digits
        return int.from_bytes(top * n, order)

    def pack(run):
        data = array(code, run) if code else b"".join(
            c.to_bytes(width, order, signed=True) for c in run)
        o = offset(len(run))
        return (int.from_bytes(data, order) ^ o) - o

    def unpack(lo, total):
        first = ((total & -total).bit_length() - 1) // bits
        total >>= bits * first
        # |digit| <= bound < 2^(B-1): a top nonzero digit at place m puts
        # |total| in (2^(Bm-1), 2^(B(m+1)-1)), so n = m + 1, digits[-1] != 0
        n = abs(total).bit_length() // bits + 1
        o = offset(n)
        data = ((total + o) ^ o).to_bytes(n * width, order)
        digits = memoryview(data).cast(code).tolist() if code else [
            int.from_bytes(data[i:i + width], order, signed=True)
            for i in range(0, n * width, width)]
        return lo + first, tuple(digits)

    pa, pb = ([[{key: (lo, pack(run)) for key, (lo, run) in x._runs.items()}
                for x in row] for row in m] for m in (a, b))
    cols = list(zip(*pb))
    out = []
    for row in pa:
        out_row = []
        for col in cols:
            sums: dict = {}    # class -> [t_lo, packed sum]
            for x, y in zip(row, col):
                for (sa, ra), (la, va) in x.items():
                    for (sb, rb), (lb, vb) in y.items():
                        key, lo, v = (sa + sb, ra + rb), la + lb, va * vb
                        acc = sums.get(key)
                        if acc is None:
                            sums[key] = [lo, v]
                        elif lo >= acc[0]:
                            acc[1] += v << bits * (lo - acc[0])
                        else:
                            acc[1] = (acc[1] << bits * (acc[0] - lo)) + v
                            acc[0] = lo
            runs = {key: unpack(lo, total)
                    for key, (lo, total) in sums.items() if total}
            out_row.append(_wrap(runs) if runs else _ZERO)
        out.append(out_row)
    return out


def apply_action(rows, action) -> None:
    """Right-multiply rows (lists of LaurentPoly) in place by an action
    ((dest, terms), ...): column dest becomes monomial_sum(row, terms) in
    every row. All new columns are computed from the old rows before any is
    written back; action may be a one-pass iterable."""
    new = [(d, [monomial_sum(row, terms) for row in rows])
           for d, terms in action]
    for d, col in new:
        for row, value in zip(rows, col):
            row[d] = value


_ZERO = _wrap({})
_ONE = _wrap({(0, 0): (0, (1,))})

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


def poly_from_json(data: Iterable[Mapping]) -> LaurentPoly:
    terms: dict[Exponents, int] = {}
    for item in data:
        e = item["e"]
        key = (int(e[0]), int(e[1]), int(e[2]))
        if key in terms:
            raise ValueError(f"exponent {list(key)} repeated")
        terms[key] = int(item["c"])
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
    return Matrix(a.dim, tuple(map(tuple, _products(a.rows, b.rows))))


def mat_eval(m: Matrix, a: Assignment) -> tuple[tuple[Fraction, ...], ...]:
    nums, den = eval_numerators([x for row in m.rows for x in row], a)
    return tuple(tuple(Fraction(x, den) for x in nums[i:i + m.dim])
                 for i in range(0, len(nums), m.dim))


def mat_to_text(m: Matrix) -> str:
    return "\n".join(",".join(format_poly(x) for x in row) for row in m.rows)


def mat_to_json(m: Matrix) -> dict:
    return {"dim": m.dim,
            "rows": [[poly_to_json(x) for x in row] for row in m.rows]}


def mat_from_json(data: Mapping) -> Matrix:
    rows = tuple(tuple(poly_from_json(x) for x in row) for row in data["rows"])
    return Matrix(int(data["dim"]), rows)


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
