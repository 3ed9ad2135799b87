"""Compare two saved benchmark results.

    python3 perfbench/compare.py perfbench/out/result-A.json perfbench/out/result-B.json

Prints each metric of both results and the ratio B/A.  Refuses (exit 2) to
compare results whose kernel backend, PENTAPLANAR_KERNEL setting or worker
count differ.  Results of the same workload, seed and trace flag have their
exact counts compared as well; when they also come from the same source
(`source_digest`), any difference is a determinism failure (exit 1).
"""

from __future__ import annotations

import json
import sys

SETUP_KEYS = ("backend", "PENTAPLANAR_KERNEL", "workers")
SAME_RUN_KEYS = ("workload", "seed", "trace", "source_digest")


def setup_differences(pa: dict, pb: dict) -> list[str]:
    """Provenance fields that make two results incomparable."""
    return [f"{k} ({pa.get(k)} vs {pb.get(k)})" for k in SETUP_KEYS if pa.get(k) != pb.get(k)]


def count_differences(ca: dict, cb: dict) -> list[str]:
    """Exact counts that differ.  Query results are compared only when both
    runs covered the same prefix of the stream."""
    if ca.get("query.prefix") != cb.get("query.prefix"):
        return []
    return [f"{k}: {ca.get(k)} vs {cb.get(k)}" for k in sorted(set(ca) | set(cb))
            if ca.get(k) != cb.get(k)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    pa, pb = a["provenance"], b["provenance"]
    refused = setup_differences(pa, pb)
    if refused:
        print("refused: the results differ in " + ", ".join(refused), file=sys.stderr)
        return 2
    for name, va in a["metrics"].items():
        vb = b["metrics"].get(name, float("nan"))
        ratio = f"{vb / va:8.3f}" if va else "       -"
        print(f"{name:44s} {va:14.6f} {vb:14.6f} {ratio}")
    if all(pa.get(k) == pb.get(k) for k in SAME_RUN_KEYS[:3]):
        differ = count_differences(a["counts"], b["counts"])
        for line in differ:
            print(f"count differs: {line}")
        if differ and pa.get("source_digest") == pb.get("source_digest"):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
