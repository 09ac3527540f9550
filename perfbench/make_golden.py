"""Regenerate atlas_golden.json, the expected answers of the atlas workload.

Run from the repository root:

    python3 perfbench/make_golden.py

Each point records what exact_rado_number returned on the code this file was
generated from, next to C(m, a). Where the two differ, or the search ended in
a cutoff, that is a measured value of this code, not a theorem.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import radonum as lib

    points, differs = [], {}
    for a, (lo, hi) in workloads.ATLAS_RANGES.items():
        for m in range(lo, hi + 1):
            eq = lib.RadoEquation(m, a)
            c = lib.ceiling_formula(eq)
            out = lib.exact_rado_number(eq, n_max=workloads.atlas_n_max(c))
            points.append({
                "m": m,
                "a": a,
                "n_max": workloads.atlas_n_max(c),
                "status": out.status,
                "rado_number": out.rado_number,
                "ceiling_formula": c,
            })
            if out.rado_number != c:
                differs.setdefault(str(a), []).append(m)
    doc = {
        "about": "exact_rado_number per atlas point as computed by radonum, with C(m, a) beside it; "
                 "values that differ from C(m, a) or end in a cutoff are measurements, not theorems",
        "differs_from_ceiling_formula": differs,
        "points": points,
    }
    workloads.GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(points)} points to {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
