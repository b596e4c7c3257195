"""Write bench/expected.json: the outputs of the benchmark's fixed inputs
(relation and cocycle suites, BIGELOW5) and digests of its pinned pools.

The file was recorded once, from the commit that introduced the benchmark,
and the benchmark checks every later commit against it. Re-recording it
hides a change of output; run this only to add entries for new inputs.

    python3 bench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from braidrep import braidword, relcheck  # noqa: E402
from tracing import NullTracer  # noqa: E402


def main() -> None:
    out = {}
    for rep_id, family, flag, n in workloads.REL_CASES:
        report = relcheck.verify_relations(
            rep_id, braidword.GroupId(family, n, flag))
        assert report.passed
        out[workloads.relations_key(rep_id, family, flag, n)] = report.checked
    for n, k, d in workloads.COC_CASES:
        report = relcheck.verify_pk_cocycle(n, k, d, pairs=0)
        assert report.passed
        out[workloads.cocycle_key(n, k, d)] = report.checked
    tr = NullTracer()
    word, m = workloads.bigelow5_image(tr)
    out[workloads.BIGELOW5_KEY] = workloads.digest(
        workloads.bigelow5_text(tr, word, m))
    out["pinned"] = {}
    for workload, mix in workloads.ROUNDS.items():
        for kind, _ in mix:
            if kind in workloads.PINNED:
                op = workloads.OPS[kind]
                out["pinned"][kind] = [
                    workloads.digest(workloads.output_text(
                        tr, op(tr, {}, out, params)))
                    for params in workloads.pinned_inputs(workload, kind)]
    workloads.EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    main()
