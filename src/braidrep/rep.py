"""Matrix images of braid words over the exact Laurent ring.

Four representations share one evaluation engine:

    rho              dim n,   families B/CPB/VCB, crossing and virtual blocks
                     at cyclically adjacent slots, z acts as the slot rotation
    rho-tilde        dim n,   family FVB, crossing/flat/virtual blocks on the line
    burau-unreduced  dim n,   family B
    burau-reduced    dim n-1, family B

Words act on the right of an accumulator matrix, and every generator image
touches at most three columns, so a product costs O(len * dim) ring
operations instead of O(len * dim^3).
"""

from __future__ import annotations

from fractions import Fraction
from .braidword import GroupId, Letter, Word
from .errors import IncompatibleRepGroup, KindNotInGroup
from .laurent import (Assignment, LaurentPoly, Matrix, lp_eval,
                      S, S_INV, T, T_INV, R, R_INV)

RHO = "rho"
RHO_TILDE = "rho-tilde"
BURAU_UNREDUCED = "burau-unreduced"
BURAU_REDUCED = "burau-reduced"
REP_IDS = (RHO, RHO_TILDE, BURAU_UNREDUCED, BURAU_REDUCED)

_FAMILIES = {
    RHO: ("B", "CPB", "VCB"),
    RHO_TILDE: ("FVB",),
    BURAU_UNREDUCED: ("B",),
    BURAU_REDUCED: ("B",),
}

_ONE_P = LaurentPoly.one()
_ZERO_P = LaurentPoly.zero()

# 2x2 generator blocks, acting on the (i, i+1) coordinate pair
_CROSS_POS = ((1 - T, T), (_ONE_P, _ZERO_P))
_CROSS_NEG = ((_ZERO_P, _ONE_P), (T_INV, 1 - T_INV))
_SWAP_S = ((_ZERO_P, S), (S_INV, _ZERO_P))
_SWAP_R = ((_ZERO_P, R), (R_INV, _ZERO_P))


def check_compatible(rep: str, group: GroupId) -> None:
    if rep not in _FAMILIES:
        raise IncompatibleRepGroup(f"unknown representation {rep!r}")
    if group.family not in _FAMILIES[rep]:
        raise IncompatibleRepGroup(f"{rep} is not defined on {group}")


def rep_dim(rep: str, group: GroupId) -> int:
    check_compatible(rep, group)
    return group.strands - 1 if rep == BURAU_REDUCED else group.strands


# A letter action is ("block", col_a, col_b, block) for a 2x2 block on two
# columns, ("col", col, ((src, coeff), ...)) for a single-column update, or
# ("rot", shift) for the slot rotation.

def _action(rep: str, dim: int, cyclic: bool, kind: str, index: int | None,
            positive: bool):
    if kind == "z":
        if rep != RHO:
            raise KindNotInGroup(f"z has no image under {rep}")
        return ("rot", 1 if positive else -1)
    if kind == "s":
        block = _CROSS_POS if positive else _CROSS_NEG
        if rep == BURAU_REDUCED:
            c = index - 1
            t_c = T if positive else _ONE_P
            mid = -T if positive else -T_INV
            lo = _ONE_P if positive else T_INV
            cols = []
            if c - 1 >= 0:
                cols.append((c - 1, t_c))
            cols.append((c, mid))
            if c + 1 < dim:
                cols.append((c + 1, lo))
            return ("col", c, tuple(cols))
    elif kind == "t":
        block = _SWAP_S if rep == RHO else _SWAP_R
        if rep in (BURAU_UNREDUCED, BURAU_REDUCED):
            raise KindNotInGroup(f"t has no image under {rep}")
    elif kind == "p":
        if rep != RHO_TILDE:
            raise KindNotInGroup(f"p has no image under {rep}")
        block = _SWAP_S
    else:
        raise KindNotInGroup(f"unknown kind {kind!r}")
    a = index - 1
    b = index % dim if cyclic else index
    return ("block", a, b, block)


def _eval_action(action, assignment: Assignment):
    kind = action[0]
    if kind == "rot":
        return action
    if kind == "block":
        _, a, b, blk = action
        return ("block", a, b,
                tuple(tuple(lp_eval(x, assignment) for x in row) for row in blk))
    _, c, cols = action
    return ("col", c, tuple((src, lp_eval(x, assignment)) for src, x in cols))


def _apply(rows: list[list], action) -> None:
    kind = action[0]
    if kind == "rot":
        shift = action[1]
        dim = len(rows)
        for r in range(dim):
            row = rows[r]
            rows[r] = [row[(c - shift) % dim] for c in range(dim)]
        return
    if kind == "block":
        _, a, b, blk = action
        (b00, b01), (b10, b11) = blk
        for row in rows:
            x, y = row[a], row[b]
            row[a] = x * b00 + y * b10
            row[b] = x * b01 + y * b11
        return
    _, c, cols = action
    for row in rows:
        acc = None
        for src, coeff in cols:
            term = row[src] * coeff
            acc = term if acc is None else acc + term
        row[c] = acc


def word_image(word: Word, rep: str, assignment: Assignment | None = None):
    """Right-to-left fold of the word's generator images.

    Returns a symbolic Matrix, or a tuple of Fraction rows when an
    assignment is given (the blocks are evaluated before folding, which is
    much faster than evaluating the symbolic product).
    """
    check_compatible(rep, word.group)
    dim = rep_dim(rep, word.group)
    cyclic = word.group.cyclic
    if assignment is None:
        one, zero = _ONE_P, _ZERO_P
    else:
        one, zero = Fraction(1), Fraction(0)
    rows: list[list] = [[one if i == j else zero for j in range(dim)]
                        for i in range(dim)]
    cache: dict = {}
    for letter in word.letters:
        if letter.kind == "z":
            _apply(rows, ("rot", letter.power % dim if cyclic else letter.power))
            continue
        key = (letter.kind, letter.index, letter.power > 0)
        action = cache.get(key)
        if action is None:
            action = _action(rep, dim, cyclic, letter.kind, letter.index,
                             letter.power > 0)
            if assignment is not None:
                action = _eval_action(action, assignment)
            cache[key] = action
        reps = abs(letter.power)
        if letter.kind in ("t", "p"):
            reps %= 2
        for _ in range(reps):
            _apply(rows, action)
    if assignment is None:
        return Matrix(dim, tuple(tuple(r) for r in rows))
    return tuple(tuple(r) for r in rows)


def generator_image(rep: str, group: GroupId, letter: Letter) -> Matrix:
    """Full matrix image of a single letter."""
    return word_image(Word(group, (letter,)), rep)
