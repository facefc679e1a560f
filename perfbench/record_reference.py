"""Add the outputs of finished ``--trace 0`` runs to ``reference.json``.

Usage, after runs of the commit whose outputs become the reference:

    python3 perfbench/record_reference.py

Reads ``.bench_out/<workload>-s<seed>-t0/main.json``. Seeds already in
``reference.json`` keep their entry; only new seeds are added.
"""

from __future__ import annotations

import glob
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import OUT_ROOT, reference_entry  # noqa: E402


def main() -> int:
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    added = 0
    for result in sorted(glob.glob(os.path.join(OUT_ROOT, "*-t0", "main.json"))):
        m = re.fullmatch(r"(.+)-s(\d+)-t0", os.path.basename(os.path.dirname(result)))
        workload, seed = m.group(1), m.group(2)
        with open(result) as fh:
            entry = reference_entry(workload, json.load(fh)["passes"][0])
        if entry is not None and seed not in reference.setdefault(workload, {}):
            reference[workload][seed] = entry
            added += 1
    for runs in reference.values():
        runs_sorted = dict(sorted(runs.items(), key=lambda kv: int(kv[0])))
        runs.clear()
        runs.update(runs_sorted)
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"added {added} reference entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
