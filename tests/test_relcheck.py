import json
import random

import pytest

from braidrep import geom
from braidrep.braidword import GroupId, invert, random_pure_word
from braidrep.errors import IncompatibleRepGroup
from braidrep.homs import PipelineConfig
from braidrep.relcheck import (verify_oracle_agreement, verify_pk_cocycle,
                               verify_relations)
from braidrep.rep import BURAU_REDUCED, BURAU_UNREDUCED, RHO, RHO_TILDE


def test_relation_reports_pass():
    for rep_id, gid in ((RHO, GroupId("CPB", 4)), (RHO, GroupId("VCB", 5)),
                        (RHO_TILDE, GroupId("FVB", 4)),
                        (RHO_TILDE, GroupId("FVB", 4, flat_braid_relation=True)),
                        (BURAU_UNREDUCED, GroupId("B", 4)),
                        (BURAU_REDUCED, GroupId("B", 5))):
        report = verify_relations(rep_id, gid)
        assert report.passed and report.checked > 0
        assert "PASS" in report.summary()


def test_relation_report_incompatible():
    with pytest.raises(IncompatibleRepGroup):
        verify_relations(RHO, GroupId("FVB", 4))


def test_report_json_shape():
    report = verify_relations(RHO, GroupId("CPB", 3))
    data = report.to_json()
    assert data["checked"] == report.checked
    assert data["failures"] == []
    json.dumps(data)


def test_cocycle_sweep_small():
    for n in (3, 4):
        for k in range(1, n + 1):
            report = verify_pk_cocycle(n, k, 2, seed=1, pairs=2)
            assert report.passed, report.summary()


def test_cocycle_pair_count_must_not_be_negative():
    assert verify_pk_cocycle(3, 1, 2, pairs=0).checked == 3
    with pytest.raises(ValueError, match="pair count -1 is negative"):
        verify_pk_cocycle(3, 1, 2, pairs=-1)


def test_oracle_agreement_default_conventions():
    rng = random.Random(6)
    words = [random_pure_word(4, rng, factors=2) for _ in range(4)]
    report = verify_oracle_agreement(words, PipelineConfig(4, 2, 2))
    assert report.passed


def test_oracle_disagrees_under_flipped_reading(monkeypatch):
    read = geom.power_map_extract
    monkeypatch.setattr(geom, "power_map_extract",
                        lambda *args: invert(read(*args)))
    rng = random.Random(6)
    words = [random_pure_word(4, rng, factors=2) for _ in range(3)]
    report = verify_oracle_agreement(words, PipelineConfig(4, 1, 1))
    assert not report.passed
    assert report.failures
    assert "FAIL" in report.summary()
