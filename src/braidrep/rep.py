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
instead of O(len * dim^3). The symbolic fold holds the accumulator as
rows * P, P a pending monomial permutation: column c is t^a s^b r^c
(shift[c]) times column perm[c] of rows. z, t and p, whose images are
monomial permutations, only update (perm, shift). Every other letter's
action is rewritten through P (dest and src mapped through perm, each
term's shift plus shift[src] - shift[dest]; used as it is while P is the
identity, indices only while no shift is set) and handed to
laurent.apply_action, which updates the rows one monomial_sum per new
entry; P is applied once at the end. The evaluated fold
evaluates each action's +-monomial terms directly in integers, puts them
over one common denominator den and divides out their gcd, and folds ints
over one scalar scale: an action with den != 1 multiplies the other
columns, and the scale, by den. Whenever the scale's bit length has
doubled since the last reduction (and passed 64), rows and scale are
divided by their gcd, so entries whose true denominators stay small keep
small integers. Entries become Fraction(x, scale) at the end. Each call
keeps its letters' actions in its own dict, so a repeated letter costs one
lookup and an image depends on nothing outside the call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .braidword import GroupId, Letter, Word
from .errors import IncompatibleRepGroup
from .laurent import (Assignment, LaurentPoly, Matrix, apply_action,
                      monomial_sum)

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


def _evaluated_action(rep: str, dim: int, kind: str, slots: tuple[int, int],
                      positive: bool, point: tuple[tuple[int, int], ...]):
    """The letter's action form evaluated at the point t, s, r, given as
    integer ratios: (updates, den, kept). updates
    ((dest, ((num, src), ...)), ...) carry integer numerators over den > 0 in
    lowest terms, one per source; kept lists the columns the action leaves
    alone. Each term is a +-monomial, so it is a ratio of products of the
    point's numerators and denominators."""
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
    return tuple((d, tuple(t)) for d, t in updates.items()), den // g, kept


def word_image(word: Word, rep: str, assignment: Assignment | None = None):
    """Right-to-left fold of the word's generator images.

    Returns a symbolic Matrix, or a tuple of Fraction rows when an
    assignment is given (the actions are evaluated before folding, which is
    much faster than evaluating the symbolic product).
    """
    check_compatible(rep, word.group)
    dim = rep_dim(rep, word.group)
    one, zero = (LaurentPoly.one(), LaurentPoly.zero()) if assignment is None \
        else (1, 0)
    rows: list[list] = [[one if i == j else zero for j in range(dim)]
                        for i in range(dim)]
    scale, reduced = 1, 32    # scale's bit length at the last gcd, at least 32
    cache: dict = {}
    point = None if assignment is None else tuple(
        v.as_integer_ratio() for v in (assignment.t, assignment.s, assignment.r))
    ident = list(range(dim))
    perm, shift = list(ident), [_1] * dim    # the symbolic fold's pending P
    for letter in word.letters:
        if letter.kind == "z":    # column c becomes column c - power
            k = -letter.power % dim
            if point is None:
                perm, shift = perm[k:] + perm[:k], shift[k:] + shift[:k]
            else:
                rows = [row[k:] + row[:k] for row in rows]
            continue
        key = (letter.kind, letter.index, letter.power > 0)
        action = cache.get(key)
        if action is None:
            form = (rep, dim, letter.kind, word.group.slots(letter.index),
                    letter.power > 0)
            action = cache[key] = _action(*form) if point is None \
                else _evaluated_action(*form, point)
        reps = abs(letter.power)
        if letter.kind in ("t", "p"):
            reps %= 2
            if point is None:    # P becomes P times the letter's block
                for d, p, e in [(d, perm[src], tuple(map(add, m, shift[src])))
                                for d, ((_, m, src),) in action] * reps:
                    perm[d], shift[d] = p, e
                continue
        shifted = point is None and shift.count(_1) < dim
        if shifted or point is None and perm != ident:    # rewrite through P
            action = tuple((perm[d], tuple((sign, tuple(map(
                sub, map(add, m, shift[src]), shift[d])) if shifted else m,
                perm[src]) for sign, m, src in terms)) for d, terms in action)
        for _ in range(reps):
            if assignment is None:
                apply_action(rows, action)
                continue
            updates, den, kept = action
            for row in rows:
                new = []
                for d, terms in updates:
                    acc = 0
                    for num, src in terms:
                        acc += num * row[src]
                    new.append((d, acc))
                if den != 1:
                    for c in kept:
                        row[c] *= den
                for d, value in new:
                    row[d] = value
            scale *= den
            if scale.bit_length() >= 2 * reduced:
                g = gcd(scale, *(x for row in rows for x in row))
                for row in rows:
                    row[:] = [x // g for x in row]
                scale //= g
                reduced = max(scale.bit_length(), 32)
    if assignment is None:
        return Matrix(dim, tuple(tuple(
            row[p] if e == _1 else monomial_sum(row, ((1, e, p),))
            for p, e in zip(perm, shift)) for row in rows))
    return tuple(tuple(Fraction(x, scale) for x in r) for r in rows)


def generator_image(rep: str, group: GroupId, letter: Letter) -> Matrix:
    """Full matrix image of a single letter."""
    return word_image(Word(group, (letter,)), rep)
