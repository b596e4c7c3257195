"""Braid words over four group families, with a text reader and macro table.

Families and their generator alphabets:

    B    classical braid group on n strands: s1..s(n-1)
    CPB  braids in a cylinder, n marked slots: s1..sn (slot indices wrap), z
    VCB  cylinder braids with virtual crossings: s1..sn, t1..tn (wrapping), z
    FVB  flat-virtual braids on n strands: s1..s(n-1), p1..p(n-1), t1..t(n-1)

Letter kinds are single characters matching the text grammar: "s" crossing,
"t" virtual, "p" flat, "z" slot rotation. Words are stored free-reduced:
adjacent powers of the same generator merge, involutive kinds ("p", "t")
keep powers in {1}, zero powers vanish. No braid-type rewriting happens.

Letters are immutable shared values: sigma, tau, pi, zeta, Letter.inverse,
the reader and the word maps hand out one Letter per (kind, index, power)
from a bounded table, so a Word checks each distinct letter once, and a
one-letter power such as s1^2000000 stays one letter.

The reader, parse_word, scans a text once into tokens, refusing a stray
character or an unknown name at once, then reads them with one recursive
function, _read: the terms up to a stop token (a close, a comm( semicolon
or the end), each atom with its optional ^int, one call per nesting level
up to MAX_NESTING, every list it spells out capped at MAX_LETTERS. It is a
module function, not a closure, so a parse leaves no reference cycle.

A letter of index i acts on slots i and i % n + 1 (GroupId.slots), so only
the cyclic families' index n wraps. One relation table, read over each
family's alphabet and slot adjacency, gives the defining relation suites of
all four families (Kauffman & Lambropoulou, "Virtual braids", 2004).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (IndexOutOfRange, KindNotInGroup, UnknownMacro,
                     WordSyntaxError)

FAMILIES = ("B", "CPB", "VCB", "FVB")
_KINDS_BY_FAMILY = {
    "B": ("s",),
    "CPB": ("s", "z"),
    "VCB": ("s", "t", "z"),
    "FVB": ("s", "p", "t"),
}
_INVOLUTIVE = ("t", "p")
MAX_NESTING = 100    # parentheses and comm( levels a word may nest
MAX_LETTERS = 2 ** 20    # letters a word may spell out while parsed
MAX_STRANDS = 64     # strands a group may have
SHARED_LETTERS = 1024    # letter values kept shared, least recently used out


@dataclass(frozen=True)
class GroupId:
    family: str
    strands: int
    flat_braid_relation: bool = False
    # generator indices: 1..n where slots wrap (CPB, VCB), else 1..n-1
    indices: range = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if type(self.strands) is not int:    # a str would break the range test
            raise ValueError(f"strand count {self.strands!r} is not an integer")
        if not 2 <= self.strands <= MAX_STRANDS:
            raise ValueError(f"need 2 to {MAX_STRANDS} strands")
        if self.flat_braid_relation and self.family != "FVB":
            raise ValueError("flat_braid_relation only applies to FVB")
        object.__setattr__(self, "indices", range(
            1, self.strands + 1 if self.cyclic else self.strands))

    @property
    def kinds(self) -> tuple[str, ...]:
        return _KINDS_BY_FAMILY[self.family]

    @property
    def cyclic(self) -> bool:
        return self.family in ("CPB", "VCB")

    def slots(self, i: int) -> tuple[int, int]:
        """The two slots letter index i acts on; only i = n wraps, to slot 1."""
        return (i, i % self.strands + 1)

    def __str__(self) -> str:
        return f"{self.family}{self.strands}"


def parse_group(text: str, flat_braid_relation: bool = False) -> GroupId:
    m = re.fullmatch(r"(B|CPB|VCB|FVB)(\d+)", text.strip())
    if not m:
        raise WordSyntaxError(f"bad group {text!r}; expected e.g. B5, VCB4")
    try:
        return GroupId(m.group(1), _int(m.group(2), "strand count"),
                       flat_braid_relation)
    except ValueError as exc:
        raise WordSyntaxError(str(exc)) from exc


@dataclass(frozen=True)
class Letter:
    kind: str
    index: int | None
    power: int

    def __post_init__(self):
        if self.kind not in ("s", "t", "p", "z"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if (self.index is None) != (self.kind == "z"):
            raise ValueError("index is required exactly for indexed kinds")
        # bool is an int too, and a float may equal one
        for name, value in (("i", self.index), ("p", self.power)):
            if value is not None and type(value) is not int:
                raise ValueError(f"letter field {name!r} must be an integer, "
                                 f"not {value!r}")
        if self.power == 0:
            raise ValueError("zero power letter")

    def inverse(self) -> "Letter":
        return _letter(self.kind, self.index, -self.power)


@lru_cache(maxsize=SHARED_LETTERS, typed=True)
def _letter(kind: str, index: int | None, power: int) -> Letter:
    """The shared Letter of a value; typed, so 1.0 misses 1's and is refused."""
    return Letter(kind, index, power)


def sigma(i: int, power: int = 1) -> Letter:
    return _letter("s", i, power)


def tau(i: int, power: int = 1) -> Letter:
    return _letter("t", i, power)


def pi(i: int, power: int = 1) -> Letter:
    return _letter("p", i, power)


def zeta(power: int = 1) -> Letter:
    return _letter("z", None, power)


def _check_letter(group: GroupId, letter: Letter) -> None:
    if letter.kind not in group.kinds:
        raise KindNotInGroup(f"{letter.kind!r} not available in {group}")
    if letter.kind != "z" and letter.index not in group.indices:
        r = group.indices
        raise IndexOutOfRange(
            f"{letter.kind}{letter.index!r} outside {r[0]}..{r[-1]} in {group}")


def free_reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for l in letters:
        p = l.power
        if out and out[-1].kind == l.kind and out[-1].index == l.index:
            p += out.pop().power
        if l.kind in _INVOLUTIVE:
            p %= 2
        if p:
            out.append(l if p == l.power else _letter(l.kind, l.index, p))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    group: GroupId
    letters: tuple[Letter, ...] = field(default=())

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        # shared letters repeat as the same object: check each one once
        for l in {id(l): l for l in letters}.values():
            _check_letter(self.group, l)

    @classmethod
    def empty(cls, group: GroupId) -> "Word":
        return cls(group, ())

    def __mul__(self, other: "Word") -> "Word":
        if other.group != self.group:
            raise ValueError("cannot concatenate words over different groups")
        return Word(self.group, free_reduce_letters(self.letters + other.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def expanded(self) -> tuple[Letter, ...]:
        """Letters with |power| 1, in order."""
        out: list[Letter] = []
        for l in self.letters:
            out += [_letter(l.kind, l.index, 1 if l.power > 0 else -1)] \
                * abs(l.power)
        return tuple(out)


def _invert_letters(letters: Sequence[Letter]) -> list[Letter]:
    return [l.inverse() for l in reversed(letters)]


def invert(w: Word) -> Word:
    return Word(w.group, free_reduce_letters(_invert_letters(w.letters)))


# -- text form -----------------------------------------------------------------


def format_word(w: Word) -> str:
    parts = []
    for l in w.letters:
        body = "z" if l.kind == "z" else f"{l.kind}{l.index}"
        parts.append(body if l.power == 1 else f"{body}^{l.power}")
    return " ".join(parts)


_TOKEN_RE = re.compile(
    r"\s+|(?P<macro_call>comm\()|(?P<abrack>A\[)|(?P<name>BIGELOW5|Dc|Dv)"
    r"|(?P<gen>[stp]\d+)|(?P<zeta>z)|(?P<caret>\^)|(?P<int>-?\d+)"
    r"|(?P<open>\()|(?P<close>\))|(?P<semi>;)|(?P<comma>,)|(?P<rbrack>\])"
    r"|(?P<word>[A-Za-z]\w*)|(?P<bad>.)", re.DOTALL)


def _int(digits: str, what: str, error=WordSyntaxError) -> int:
    """int(digits), or error naming what and the digits where they are more
    than the interpreter converts (CPython's int-to-str limit)."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"{what} {digits[:12]}... ({len(digits)} characters) is "
                    "too long to read") from None


def _cap(letters: int) -> None:    # a list this long is refused
    if letters > MAX_LETTERS:
        raise WordSyntaxError(f"word spelled out past {MAX_LETTERS} letters")


def _take(tokens: list[tuple[str | None, str]], kind: str) -> str:
    if tokens[-1][0] != kind:
        raise WordSyntaxError(f"expected {kind}, got {tokens[-1][1]!r}")
    return tokens.pop()[1]


def _read(tokens: list[tuple[str | None, str]], group: GroupId, comm: str,
          stop: str | None, depth: int) -> list[Letter]:
    """Letters of the terms up to the stop token or the end mark, popped
    from tokens, a stack with the next token last; one call per level."""
    if depth > MAX_NESTING:
        raise WordSyntaxError(f"nesting deeper than {MAX_NESTING} levels")
    out: list[Letter] = []
    while tokens[-1][0] not in (stop, None):
        kind, tok = tokens.pop()
        if kind == "gen":
            atom = [_letter(tok[0], _int(tok[1:], f"{tok[0]} index",
                                         IndexOutOfRange), 1)]
        elif kind == "zeta":
            atom = [zeta()]
        elif kind == "open":
            atom = _read(tokens, group, comm, "close", depth + 1)
            _take(tokens, "close")
        elif tok == "Dc":
            atom = [sigma(i) for i in range(1, group.strands)]
        elif tok == "Dv":
            atom = [tau(i) for i in range(1, group.strands)]
        elif tok == "BIGELOW5":
            atom = bigelow5_letters(group)
        elif kind == "abrack":
            i = _int(_take(tokens, "int"), "A[ index", IndexOutOfRange)
            _take(tokens, "comma")
            j = _int(_take(tokens, "int"), "A[ index", IndexOutOfRange)
            _take(tokens, "rbrack")
            atom = band_generator_letters(group, i, j)
        elif kind == "macro_call":
            a = _read(tokens, group, comm, "semi", depth + 1)
            _take(tokens, "semi")
            b = _read(tokens, group, comm, "close", depth + 1)
            _take(tokens, "close")
            _cap(2 * (len(a) + len(b)))
            atom = commutator_letters(a, b, comm)
        else:
            raise WordSyntaxError(
                f"expected a generator, group or macro, got {tok!r}")
        if tokens[-1][0] == "caret":
            tokens.pop()
            k = _int(_take(tokens, "int"), "power")
            if len(atom) == 1 and k:    # one letter keeps its power whole
                l = atom[0]
                atom = [_letter(l.kind, l.index, l.power * k)]
            else:
                _cap(len(atom) * abs(k))
                atom = (_invert_letters(atom) if k < 0 else atom) * abs(k)
        out += atom
        _cap(len(out))
    return out


def parse_word(text: str, group: GroupId, comm_convention: str = "direct") -> Word:
    if comm_convention not in ("direct", "inverse-first"):
        raise ValueError(f"unknown comm convention {comm_convention!r}")
    tokens: list[tuple[str | None, str]] = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise WordSyntaxError(
                f"unexpected character {m.group()!r} at {m.start()}")
        if m.lastgroup == "word":
            raise UnknownMacro(f"unknown name {m.group()!r}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group()))
    # the end mark, which no kind matches, sits under the stack
    tokens.append((None, "end of input"))
    tokens.reverse()
    # with no stop token it reads to the end; a stray ')' is no atom
    return Word(group, free_reduce_letters(
        _read(tokens, group, comm_convention, None, 0)))


# -- macros ---------------------------------------------------------------------


def commutator_letters(a: Sequence[Letter], b: Sequence[Letter],
                       convention: str = "direct") -> list[Letter]:
    """comm(a; b): direct order a b a^-1 b^-1, or inverse-first."""
    a, b = list(a), list(b)
    if convention == "inverse-first":
        return _invert_letters(a) + _invert_letters(b) + a + b
    return a + b + _invert_letters(a) + _invert_letters(b)


def band_generator_letters(group: GroupId, i: int, j: int) -> list[Letter]:
    """A[i,j]: the band generator taking strand i once around strand j."""
    if not 1 <= i < j <= group.strands:
        raise IndexOutOfRange(f"A[{i},{j}] needs 1 <= i < j <= {group.strands}")
    down = [sigma(x) for x in range(j - 1, i, -1)]
    up = [sigma(x, -1) for x in range(i + 1, j)]
    return down + [sigma(i, 2)] + up


def bigelow5_letters(group: GroupId) -> list[Letter]:
    """The 5-strand commutator word whose unreduced crossing image is trivial.

    Pinned to the direct commutator convention; the surrounding parse flag
    does not alter it.
    """
    if group.family != "B" or group.strands != 5:
        raise KindNotInGroup("BIGELOW5 is a word in B5")
    psi1 = [sigma(3, -1), sigma(2), sigma(1, 2), sigma(2), sigma(4, 3),
            sigma(3), sigma(2)]
    psi2 = [sigma(4, -1), sigma(3), sigma(2), sigma(1, -2), sigma(2),
            sigma(1, 2), sigma(2, 2), sigma(1), sigma(4, 5)]
    a = _invert_letters(psi1) + [sigma(4)] + psi1
    core = [sigma(4), sigma(3), sigma(2), sigma(1, 2), sigma(2), sigma(3),
            sigma(4)]
    b = _invert_letters(psi2) + core + psi2
    return commutator_letters(a, b, "direct")


def bigelow5() -> Word:
    g = GroupId("B", 5)
    return Word(g, free_reduce_letters(bigelow5_letters(g)))


# -- JSON form -------------------------------------------------------------------


def word_to_json(w: Word) -> dict:
    g: dict = {"family": w.group.family, "strands": w.group.strands}
    if w.group.family == "FVB":
        g["flatBraidRelation"] = w.group.flat_braid_relation
    letters = []
    for l in w.letters:
        item: dict = {"k": l.kind, "p": l.power}
        if l.index is not None:
            item["i"] = l.index
        letters.append(item)
    return {"group": g, "letters": letters}


def word_from_json(data: dict) -> Word:
    try:
        g = data["group"]
        flat = g.get("flatBraidRelation", False)
        if type(flat) is not bool:
            raise ValueError(f"flatBraidRelation {flat!r} is not a boolean")
        group = GroupId(g["family"], g["strands"], flat)
        letters = [Letter(item["k"], item.get("i"), item["p"])
                   for item in data["letters"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise WordSyntaxError(f"malformed word JSON: {exc}") from exc
    return Word(group, free_reduce_letters(letters))


# -- permutations ------------------------------------------------------------------


def underlying_permutation(w: Word) -> tuple[int, ...]:
    """Image positions: entry x-1 is where the strand starting at x ends up."""
    n = w.group.strands
    pos = list(range(1, n + 1))  # pos[strand - 1] = current slot
    for l in w.letters:
        if l.kind == "z":
            pos = [(p - 1 + l.power) % n + 1 for p in pos]
            continue
        if l.power % 2 == 0:
            continue
        a, b = w.group.slots(l.index)
        for st in range(n):
            if pos[st] == a:
                pos[st] = b
            elif pos[st] == b:
                pos[st] = a
    return tuple(pos)


def is_pure(w: Word) -> bool:
    return underlying_permutation(w) == tuple(range(1, w.group.strands + 1))


# -- relation suites ----------------------------------------------------------------

Relation = tuple[str, Word, Word]


def relation_suite(group: GroupId) -> list[Relation]:
    """Defining relations as word pairs, labels included for failure reports.

    One presentation over the group's alphabet and slot geometry: letters on
    disjoint slots commute; braid-type kinds satisfy the braid relation on
    adjacent slots ("p" only with flat_braid_relation); involutive kinds
    square to 1 and carry every earlier kind across adjacent slots; z shifts
    each slot down by one. Words on both sides are kept unreduced so
    involutions stay visible.
    """
    n = group.strands
    kinds = tuple(x for x in group.kinds if x != "z")
    slots = {i: group.slots(i) for i in group.indices}
    gen = {(x, i): _letter(x, i, 1) for x in kinds for i in slots}
    far = [(i, j) for i, a in slots.items() for j, b in slots.items()
           if a[0] not in b and a[1] not in b]
    # j follows i when i's upper slot is j's lower one; two wrapping slots
    # share both and are not adjacent
    follows = [(i, j) for i, a in slots.items() for j, b in slots.items()
               if a[1] == b[0] and a[0] != b[1]]
    adjacent = follows + [(j, i) for i, j in follows]
    involutive = [x for x in kinds if x in _INVOLUTIVE]
    rel: list[Relation] = []

    def add(label: str, left: tuple[Letter, ...], right: tuple[Letter, ...]):
        rel.append((label, Word(group, left), Word(group, right)))

    for x, y in [(x, x) for x in kinds] + list(combinations(kinds, 2)):
        for i, j in far:
            if x != y or i < j:
                add(f"far {x}{i} {y}{j}", (gen[x, i], gen[y, j]),
                    (gen[y, j], gen[x, i]))
    for x in kinds:
        if x != "p" or group.flat_braid_relation:
            for i, j in follows:
                add(f"braid {x}{i} {x}{j}", (gen[x, i], gen[x, j], gen[x, i]),
                    (gen[x, j], gen[x, i], gen[x, j]))
    for x in involutive:
        for i in slots:
            add(f"involution {x}{i}", (gen[x, i], gen[x, i]), ())
    for x in involutive:
        for y in kinds[:kinds.index(x)]:
            for i, j in adjacent:
                add(f"mixed {x}{i} {x}{j} {y}{i}",
                    (gen[x, i], gen[x, j], gen[y, i]),
                    (gen[y, j], gen[x, i], gen[x, j]))
    if "z" in group.kinds:
        for x in kinds:
            for i in slots:
                add(f"rotation z {x}{i}", (zeta(), gen[x, i]),
                    (gen[x, (i - 2) % n + 1], zeta()))
    return rel


# -- seeded word generators ----------------------------------------------------------


def random_pure_word(n: int, rng, factors: int = 8) -> Word:
    """Product of band generators A[i,j]^{+-1}; always pure."""
    if factors < 0:
        raise ValueError(f"factor count {factors} is negative")
    group = GroupId("B", n)
    letters: list[Letter] = []
    for _ in range(factors):
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        letters.extend(_signed_band(group, rng, i, j))
    return Word(group, free_reduce_letters(letters))


def random_zero_linking_word(n: int, rng, factors: int = 2) -> Word:
    """Product of commutators of band generators; every pairwise winding is zero."""
    if factors < 0:
        raise ValueError(f"factor count {factors} is negative")
    group = GroupId("B", n)
    if factors and n < 3:    # a commutator needs a second band generator
        raise ValueError(f"zero-linking factors need 3 strands, not {n}")
    letters: list[Letter] = []
    for _ in range(factors):
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        while True:
            k = rng.randrange(1, n)
            l = rng.randrange(k + 1, n + 1)
            if (k, l) != (i, j):
                break
        a, b = _signed_band(group, rng, i, j), _signed_band(group, rng, k, l)
        letters.extend(commutator_letters(a, b))
    return Word(group, free_reduce_letters(letters))


def _signed_band(group: GroupId, rng, i: int, j: int) -> list[Letter]:
    """A[i,j], inverted at even odds by one draw of rng.random()."""
    band = band_generator_letters(group, i, j)
    return _invert_letters(band) if rng.random() < 0.5 else band
