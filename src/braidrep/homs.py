"""Word-level strand removal and rotation-power maps, and their composite
matrix pipeline.

strand_removal (p_k) rewrites a pure braid word on n strands as a cylinder
word on the remaining n-1 strands, tracking the removed strand's position as
state; rotation_power (f_d) rewrites a cylinder word so that one full slot
rotation becomes d of them, at the cost of virtual letters. Composing with
the crossing representation gives Laurent matrices of size n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braidword import (MAX_LETTERS, GroupId, Letter, Word,
                        free_reduce_letters, is_pure, sigma, tau, zeta)
from .errors import NotPure
from .laurent import Assignment
from . import rep


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the composite map on pure braid words: remove strand k,
    then apply the d-th rotation power, then take crossing matrices."""

    n: int
    k: int
    d: int = 1

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 strands")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} outside 1..{self.n}")
        if self.d < 1:
            raise ValueError("d must be positive")


@lru_cache(maxsize=64)
def _delta_c_letters(m: int, power: int) -> tuple[Letter, ...]:
    if power > 0:
        return tuple(sigma(i) for i in range(1, m))
    return tuple(sigma(i, -1) for i in range(m - 1, 0, -1))


def strand_removal_letters(letters, n: int, start_pos: int):
    """Translate crossing letters, returning (letters, end_pos).

    The distinguished strand sits at position start_pos; each crossing either
    moves it (emitting a rotation or a full twist of the others) or braids
    two of the remaining strands, whose slot is the crossing position counted
    from the removed strand's current position. A power of a crossing away
    from the strand stays one letter; one beside it is spelled unit by unit.
    An output of more than MAX_LETTERS letters is refused before it is made.
    """
    m = n - 1
    pos = start_pos
    out: list[Letter] = []
    for letter in letters:
        if letter.kind != "s":
            raise NotPure(f"unexpected {letter.kind!r} letter")
        i, e = letter.index, letter.power
        if i != pos - 1 and i != pos:
            slot = (pos - i - 1) % n
            assert 1 <= slot <= m - 1
            out.append(sigma(slot, e))
            continue
        # the units move the strand down and back up in turn
        down = (zeta(-1),) if e > 0 else _delta_c_letters(m, 1)
        up = _delta_c_letters(m, -1) if e > 0 else (zeta(),)
        below, (half, odd) = i == pos - 1, divmod(abs(e), 2)
        first, second = (down, up) if below else (up, down)
        if len(out) + half * len(first + second) + odd * len(first) \
                > MAX_LETTERS:
            raise ValueError(f"strand removal would write more than "
                             f"{MAX_LETTERS} letters")
        out += (first + second) * half + first * odd
        pos += odd * (-1 if below else 1)
    return out, pos


def p_k(word: Word, k: int) -> Word:
    """Remove strand k from a pure braid word; image lives in the cylinder
    group on n-1 strands."""
    if word.group.family != "B":
        raise ValueError("strand removal expects a braid word (family B)")
    n = word.group.strands
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    if not is_pure(word):
        raise NotPure(f"word is not pure; strand removal at k={k} undefined")
    out, end = strand_removal_letters(word.letters, n, k)
    if end != k:
        raise AssertionError("position bookkeeping corrupted")
    return Word(GroupId("CPB", n - 1), free_reduce_letters(out))


@lru_cache(maxsize=256)
def rotation_block_letters(m: int, d: int, power: int) -> tuple[Letter, ...]:
    """Image of one slot rotation under the d-th power map:
    z (Dv z)^(d-1), inverted for power -1."""
    if power < 0:
        return tuple(l.inverse() for l in reversed(
            rotation_block_letters(m, d, 1)))
    return (zeta(),) + (tuple(tau(i) for i in range(1, m)) + (zeta(),)) * (d - 1)


def f_d(word: Word, d: int) -> Word:
    """Rotation-power map on cylinder words; image has virtual letters,
    refused before it is written if it has more than MAX_LETTERS. For d = 1,
    whose block is z, a power of z is its own image, one letter."""
    if word.group.family != "CPB":
        raise ValueError("rotation power expects a cylinder word (family CPB)")
    if d < 1:
        raise ValueError("d must be positive")
    m = word.group.strands
    block = 1 + m * (d - 1)    # the letters of rotation_block_letters
    if sum((1 if d == 1 else block * abs(l.power)) if l.kind == "z"
           else 1 if l.index < m else 2 * block + 1
           for l in word.letters) > MAX_LETTERS:
        raise ValueError(f"rotation power would write more than "
                         f"{MAX_LETTERS} letters")
    fwd, back = rotation_block_letters(m, d, 1), rotation_block_letters(m, d, -1)
    out: list[Letter] = []
    for letter in word.letters:
        if letter.kind == "z" and d == 1:
            out.append(letter)
        elif letter.kind == "z":
            out += (fwd if letter.power > 0 else back) * abs(letter.power)
        elif letter.index < m:
            out.append(letter)
        else:
            out += (*fwd, sigma(1, letter.power), *back)
    return Word(GroupId("VCB", m), free_reduce_letters(out))


def pipeline_word(word: Word, cfg: PipelineConfig) -> Word:
    if word.group.strands != cfg.n:
        raise ValueError(f"word has {word.group.strands} strands, config expects {cfg.n}")
    return f_d(p_k(word, cfg.k), cfg.d)


def pipeline_matrix(word: Word, cfg: PipelineConfig,
                    assignment: Assignment | None = None):
    """Matrix of the composite map; symbolic Matrix by default, Fraction rows
    when an assignment is given."""
    return rep.word_image(pipeline_word(word, cfg), rep.RHO, assignment)
