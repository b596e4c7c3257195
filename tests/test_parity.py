"""The slice of the parity battery in tests/parity.py, pinned: every few
inputs of each family, geometry and algebra, read as they were when the
pin was taken.
After a change that is meant to move a reading, take the pin again with

    PYTHONPATH=src python tests/parity.py --pin tests/parity_slice.txt"""

from pathlib import Path

import parity

PINS = Path(__file__).with_name("parity_slice.txt")


def test_parity_slice_reads_as_pinned():
    got = list(parity.records(slice=True))
    pins = PINS.read_text(encoding="utf-8").splitlines()
    for (key, result), want in zip(got, pins):
        if parity.pin(key, result) != want:
            pinned = want.partition("\t")[2]
            raise AssertionError(f"first differing record: {key}; pinned "
                                 f"{pinned}, now reads {result[:600]}")
    assert len(got) == len(pins), (f"{len(got)} records read, "
                                   f"{len(pins)} pinned")
