"""Matrix images of braid words over the exact Laurent ring.

Four representations share one evaluation engine:

    rho              dim n,   families B/CPB/VCB, crossing and virtual blocks
                     at cyclically adjacent slots, z acts as the slot rotation
    rho-tilde        dim n,   family FVB, crossing/flat/virtual blocks on the line:
                     crossings in t, virtual t_i blocks in r, flat p_i blocks
                     in s (PAPER.md's summary names s and r the other way)
    burau-unreduced  dim n,   family B
    burau-reduced    dim n-1, family B

Words act on the right of an accumulator matrix. z^k rotates the columns
by k; every other letter is one action form, a tuple of updates
dest <- sum of sign * t^a s^b r^c * old[src] on at most three columns
(1 - t is two terms), so a product costs O(len * dim) ring operations
instead of O(len * dim^3). Both folds hold the accumulator as its list of
columns, and each is its own loop. A t or p block squares to the
identity, so each folds power % 2 times.

The symbolic fold adds packed integers in laurent's one packed layout:
column j is a pending monomial sign * t^a s^b r^c (a a multiple of dim)
times its classes, which hold, per (e_s, e_r) class, a pair (lo, x), x
the packed run from t^lo of sum_i A_ij(t^dim, s, r) * t^i, so the row is
interleaved into the t exponent, e_t * dim + i, and all rows share the
class's one run. A one-term update (both of a t or p block's, and the
one-term half of an s) composes its monomial with its source's and
shares the source's classes: it costs one tuple. A longer update folds
each source's monomial into its term, rewrites each class key of the
source, moves lo by the term's t shift and adds +-x into its class by
laurent.accumulate, which drops a class whose sum cancels; it writes a
fresh dict under the identity monomial. No column's dict is changed in
place, so sharing is safe. The new columns replace the old once the
action's updates are all built, and z rotates the list. One bound B
covers every coefficient: it starts at 1 with 64-bit digits, and each
unit letter multiplies it by the most terms of an update of its kind (3
for an s, 1 for t or p). Before B would reach the digits' limit, the
pending monomials are applied, laurent.repacked unpacks every column
exactly, B becomes the largest coefficient M, and the columns are packed
again in digits wide enough for M^2. At the end the monomials are applied
and laurent.split_rows unpacks the columns. rep knows the action format,
and laurent the digit format.

The evaluated fold evaluates each action's +-monomial terms in integers,
puts them over one common denominator den and divides out their gcd. It
holds columns of Python ints, one integer multiplier per column and one
scalar scale: column c is mult[c] * cols[c] / scale. z rotates both lists.
As in the symbolic fold, a one-term update makes the column share its
source's list, with the source's multiplier times the term, and a longer
one writes a fresh list with multiplier 1; no list is changed in place.
An action with den != 1 multiplies the untouched columns' multipliers,
and the scale, by den.
Whenever the scale's bit length has doubled since the last reduction (and
passed 64), scale and columns are divided by their gcd g, that of the
scale and of each mult[c] * gcd(cols[c]), without folding the multipliers
into the columns: mult[c] is divided by h = gcd(g, mult[c]) and the
entries of cols[c] by g // h. So entries whose true denominators stay
small keep small integers, and a column a power leaves kept for many
steps keeps small entries under one large multiplier. At the end entries
become Fraction(mult[c] * x, scale).

A letter's action is a pure function of (rep, dim, kind, slots, sign), and
its plan, the action evaluated at a point, of those and the point as
integer ratios; both are memoized (lru_cache), so a repeated letter costs
one lookup, in one image and across images. They are tuples, which no fold
can change.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .braidword import GroupId, Letter, Word
from .errors import IncompatibleRepGroup
from .laurent import Assignment, Matrix, accumulate, repacked, split_rows

RHO = "rho"
RHO_TILDE = "rho-tilde"
BURAU_UNREDUCED = "burau-unreduced"
BURAU_REDUCED = "burau-reduced"
REP_IDS = (RHO, RHO_TILDE, BURAU_REDUCED, BURAU_UNREDUCED)

_FAMILIES = {
    RHO: ("B", "CPB", "VCB"),
    RHO_TILDE: ("FVB",),
    BURAU_UNREDUCED: ("B",),
    BURAU_REDUCED: ("B",),
}

_1, _T, _T_INV = (0, 0, 0), (1, 0, 0), (-1, 0, 0)   # exponent shifts


def check_compatible(rep: str, group: GroupId) -> None:
    if rep not in _FAMILIES:
        raise IncompatibleRepGroup(f"unknown representation {rep!r}")
    if group.family not in _FAMILIES[rep]:
        raise IncompatibleRepGroup(f"{rep} is not defined on {group}")


def rep_dim(rep: str, group: GroupId) -> int:
    check_compatible(rep, group)
    return group.strands - 1 if rep == BURAU_REDUCED else group.strands


@lru_cache(maxsize=1024)    # a letter per (rep, dim, kind, slots, sign)
def _action(rep: str, dim: int, kind: str, slots: tuple[int, int],
            positive: bool):
    """Action form of a letter on its two slots:
    ((dest, ((sign, shift, src), ...)), ...). The kind is one that Word and
    check_compatible admit for rep."""
    a, b = slots[0] - 1, slots[1] - 1
    if kind == "s" and rep == BURAU_REDUCED:
        lo, mid, hi = (_T, _T, _1) if positive else (_1, _T_INV, _T_INV)
        terms = [(1, lo, a - 1)] if a >= 1 else []
        terms.append((-1, mid, a))
        if a + 1 < dim:
            terms.append((1, hi, a + 1))
        return ((a, tuple(terms)),)
    if kind == "s" and positive:    # block [[1 - t, t], [1, 0]] on (a, b)
        return ((a, ((1, _1, a), (-1, _T, a), (1, _1, b))), (b, ((1, _T, a),)))
    if kind == "s":                 # block [[0, 1], [t^-1, 1 - t^-1]]
        return ((a, ((1, _T_INV, b),)),
                (b, ((1, _1, a), (1, _1, b), (-1, _T_INV, b))))
    m = (0, 0, 1) if kind == "t" and rep == RHO_TILDE else (0, 1, 0)
    m_inv = tuple(-e for e in m)    # block [[0, m], [m^-1, 0]]
    return ((a, ((1, m_inv, b),)), (b, ((1, m, a),)))


@lru_cache(maxsize=1024)    # and per point: keyed by ratios, not Fractions
def _evaluated_action(rep: str, dim: int, kind: str, slots: tuple[int, int],
                      positive: bool, point: tuple[tuple[int, int], ...]):
    """The letter's action form evaluated at the point t, s, r, given as
    integer ratios, as the evaluated fold's plan (den, updates, kept).
    updates ((dest, ((num, src), ...)), ...) carry integer numerators over
    den > 0, in lowest terms, one per source; kept lists the columns the
    action leaves alone. Each term is a +-monomial, so it is a ratio of
    products of the point's numerators and denominators."""
    action = _action(rep, dim, kind, slots, positive)
    values = []    # (dest, src, num, den) per term
    for dest, terms in action:
        for sign, shift, src in terms:
            num, den = sign, 1
            for e, (n, d) in zip(shift, point):
                if e > 0:
                    num, den = num * n ** e, den * d ** e
                elif e:
                    num, den = num * d ** -e, den * n ** -e
            values.append((dest, src, num, den))
    den = lcm(*(v[3] for v in values))
    nums: dict = {}
    for dest, src, n, d in values:
        nums[dest, src] = nums.get((dest, src), 0) + n * (den // d)
    g = gcd(den, *nums.values())
    updates: dict = {dest: [] for dest, _ in action}
    for (dest, src), num in nums.items():
        if num:
            updates[dest].append((num // g, src))
    kept = tuple(c for c in range(dim) if c not in updates)
    return den // g, tuple((d, tuple(t)) for d, t in updates.items()), kept


def word_image(word: Word, rep: str, assignment: Assignment | None = None):
    """Right-to-left fold of the word's generator images.

    Returns a symbolic Matrix, or a tuple of Fraction rows when an
    assignment is given (the actions are evaluated before folding, which is
    much faster than evaluating the symbolic product).
    """
    dim = rep_dim(rep, word.group)
    if assignment is not None:
        return _evaluated_image(word, rep, dim, assignment)
    return _symbolic_image(word, rep, dim)


def _symbolic_image(word: Word, rep: str, dim: int) -> Matrix:
    """The image folded in packed integers: column j is (sign, a, b, c,
    classes), worth sign * t^a s^b r^c times the matrix column whose
    classes (e_s, e_r) are (lo, x), x packing in digits of bits bits the
    run from t^lo of sum_i A_ij(t^dim, s, r) * t^i (laurent.split_rows); a
    is a multiple of dim. No coefficient exceeds bound in absolute value.
    A one-term update composes its monomial with its source's and shares
    the source's classes; a longer one folds each source's monomial into
    its terms and writes a fresh dict with the identity monomial. No
    column's dict is changed in place."""
    cols = [(1, 0, 0, 0, {(0, 0): (j, 1)}) for j in range(dim)]
    bits, bound = 64, 1
    for letter in word.letters:
        if letter.kind == "z":    # column c becomes column c - power
            k = -letter.power % dim
            cols = cols[k:] + cols[:k]
            continue
        updates = _action(rep, dim, letter.kind,
                          word.group.slots(letter.index), letter.power > 0)
        growth = 3 if letter.kind == "s" else 1    # bounds an update's terms
        for _ in range(_reps(letter)):
            if (bound * growth) >> (bits - 1):    # a digit could overflow
                classes, bits, bound = repacked(_settled(cols), bits)
                cols = [(1, 0, 0, 0, col) for col in classes]
            bound *= growth
            new = cols[:]    # every update reads the old columns
            for d, terms in updates:
                if len(terms) == 1:    # share the source's classes
                    (sign, (a, b, c), src), = terms
                    sg, a0, b0, c0, classes = cols[src]
                    new[d] = sign * sg, a * dim + a0, b + b0, c + c0, classes
                    continue
                sums: dict = {}    # class -> [t_lo, packed sum]
                for sign, (a, b, c), src in terms:
                    sg, a0, b0, c0, classes = cols[src]
                    a, b, c = a * dim + a0, b + b0, c + c0
                    for (s, r), (lo, x) in classes.items():
                        accumulate(sums, (s + b, r + c), lo + a,
                                   x if sign == sg else -x, bits)
                new[d] = 1, 0, 0, 0, sums
            cols = new
    return Matrix(dim, split_rows(_settled(cols), bits, dim))


def _settled(cols) -> list[dict]:
    """The symbolic fold's columns as packed classes, each pending
    monomial sign * t^a s^b r^c applied."""
    return [{(s + b, r + c): (lo + a, x if sign > 0 else -x)
             for (s, r), (lo, x) in classes.items()}
            for sign, a, b, c, classes in cols]


def _reps(letter: Letter) -> int:
    """How many times a fold applies the letter's unit action: a t or p
    block squares to the identity."""
    return letter.power % 2 if letter.kind in ("t", "p") else abs(letter.power)


def _evaluated_image(word: Word, rep: str, dim: int,
                     assignment: Assignment) -> tuple:
    """The image at the point, folded in Python ints: column c of the
    product is mult[c] * cols[c] / scale."""
    point = tuple(v.as_integer_ratio()
                  for v in (assignment.t, assignment.s, assignment.r))
    cols = [[int(i == j) for i in range(dim)] for j in range(dim)]
    mult = [1] * dim
    scale, reduced = 1, 32    # scale's bit length at the last gcd, at least 32
    for letter in word.letters:
        if letter.kind == "z":    # column c becomes column c - power
            k = -letter.power % dim
            cols, mult = cols[k:] + cols[:k], mult[k:] + mult[:k]
            continue
        den, updates, kept = _evaluated_action(
            rep, dim, letter.kind, word.group.slots(letter.index),
            letter.power > 0, point)
        for _ in range(_reps(letter)):
            new = []
            for d, terms in updates:
                if len(terms) == 1:    # share the source's list
                    (num, src), = terms
                    new.append((d, cols[src], num * mult[src]))
                    continue
                (n0, s0), (n1, s1), *rest = terms
                a, b = n0 * mult[s0], n1 * mult[s1]
                col = [a * x + b * y for x, y in zip(cols[s0], cols[s1])]
                for num, src in rest:
                    m = num * mult[src]
                    col = [y + m * x for y, x in zip(col, cols[src])]
                new.append((d, col, 1))
            for d, col, m in new:
                cols[d], mult[d] = col, m
            if den == 1:
                continue
            for c in kept:
                mult[c] *= den
            scale *= den
            if scale.bit_length() >= 2 * reduced:
                g = gcd(scale, *(m * gcd(*col) for col, m in zip(cols, mult)))
                for c, m in enumerate(mult):    # g // h divides the entries
                    h = gcd(g, m)
                    mult[c], cols[c] = m // h, [x // (g // h) for x in cols[c]]
                scale //= g
                reduced = max(scale.bit_length(), 32)
    return tuple(tuple(Fraction(m * col[i], scale)
                       for col, m in zip(cols, mult)) for i in range(dim))


def generator_image(rep: str, group: GroupId, letter: Letter) -> Matrix:
    """Full matrix image of a single letter."""
    return word_image(Word(group, (letter,)), rep)
