"""Exact verification of defining relations, translation cocycles, and
agreement between the algebraic pipeline and the trajectory engine."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .braidword import (GroupId, Word, format_word, random_pure_word,
                        relation_suite)
from .homs import PipelineConfig, f_d, pipeline_matrix, strand_removal_letters
from .laurent import mat_to_text
from . import geom, rep


@dataclass(frozen=True)
class Failure:
    label: str
    left: str
    right: str
    left_matrix: str
    right_matrix: str

    def to_json(self) -> dict:
        return {"label": self.label, "left": self.left, "right": self.right,
                "leftMatrix": self.left_matrix, "rightMatrix": self.right_matrix}


@dataclass(frozen=True)
class Report:
    checked: int
    failures: tuple[Failure, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"checked": self.checked, "passed": self.passed,
                "failures": [f.to_json() for f in self.failures]}

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.checked} checked: {state}"


def _sorted(failures: list[Failure]) -> tuple[Failure, ...]:
    return tuple(sorted(failures, key=lambda f: (f.label, f.left, f.right)))


def verify_relations(rep_id: str, group: GroupId) -> Report:
    """Check every suite relation exactly under the given representation."""
    rep.check_compatible(rep_id, group)
    failures: list[Failure] = []
    suite = relation_suite(group)
    for label, left, right in suite:
        lm = rep.word_image(left, rep_id)
        rm = rep.word_image(right, rep_id)
        if lm != rm:
            failures.append(Failure(label, format_word(left), format_word(right),
                                    mat_to_text(lm), mat_to_text(rm)))
    return Report(len(suite), _sorted(failures))


def _translated_image(letters, n: int, start_pos: int, d: int):
    out, end = strand_removal_letters(letters, n, start_pos)
    word = Word(GroupId("CPB", n - 1), tuple(out))
    return rep.word_image(f_d(word, d), rep.RHO), end


def verify_pk_cocycle(n: int, k: int, d: int, seed: int = 0,
                      pairs: int = 4) -> Report:
    """Strand removal must turn braid relations into equal matrices from every
    start position, and the full pipeline must be multiplicative on pure words."""
    if pairs < 0:
        raise ValueError(f"pair count {pairs} is negative")
    cfg = PipelineConfig(n, k, d)
    failures: list[Failure] = []
    checked = 0
    group = GroupId("B", n)
    for label, left, right in relation_suite(group):
        lexp = list(left.expanded())
        rexp = list(right.expanded())
        for pos in range(1, n + 1):
            checked += 1
            lm, lend = _translated_image(lexp, n, pos, d)
            rm, rend = _translated_image(rexp, n, pos, d)
            if lm != rm or lend != rend:
                failures.append(Failure(
                    f"{label} from position {pos}",
                    format_word(left), format_word(right),
                    mat_to_text(lm) + f"\nend={lend}",
                    mat_to_text(rm) + f"\nend={rend}"))
    rng = random.Random(seed)
    for idx in range(pairs):
        u = random_pure_word(n, rng)
        v = random_pure_word(n, rng)
        checked += 1
        prod = pipeline_matrix(u * v, cfg)
        split = pipeline_matrix(u, cfg) * pipeline_matrix(v, cfg)
        if prod != split:
            failures.append(Failure(
                f"multiplicativity pair {idx}", format_word(u), format_word(v),
                mat_to_text(prod), mat_to_text(split)))
    return Report(checked, _sorted(failures))


def verify_oracle_agreement(words, cfg: PipelineConfig) -> Report:
    """Compare the algebraic pipeline with the word geom.power_map_extract
    reads off the trajectories geom.artin_dynamics synthesizes, exactly,
    word by word."""
    failures: list[Failure] = []
    count = 0
    for word in words:
        count += 1
        braid = geom.artin_dynamics(word)
        extracted = geom.power_map_extract(braid, cfg.k, cfg.d)
        lhs = rep.word_image(extracted, rep.RHO)
        rhs = pipeline_matrix(word, cfg)
        if lhs != rhs:
            failures.append(Failure(
                f"oracle k={cfg.k} d={cfg.d}", format_word(word),
                format_word(extracted), mat_to_text(lhs), mat_to_text(rhs)))
    return Report(count, _sorted(failures))
