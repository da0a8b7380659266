"""Rerun criterion 1's pinned seeds and list every float that moved.

    python3 tools/criterion1_pins.py

The package is imported from this checkout's ``src/``.  Each seed of
``tests/criterion1_reference.json`` runs ``run_algebra_suite`` with the
reference's inputs (n_modes=4, n_max=3, draws=100, sigma=0.2).
Every recorded float that differs from the rerun is printed as one row:
seed, identity, old, new, |delta|.  The exit code is 1 if a ``max_defect``
or an ``i_norm_diagnostics`` entry moved, if any |delta| exceeds
``TOLERANCE`` (1e-14), or if an identity is missing or new; otherwise 0.
The JSON is never written: re-recording a pin stays a decision made by hand.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "criterion1_reference.json"
# a move here fails whatever its size
FIXED = ("max_defect", "i_norm_diagnostics")
# the largest roundoff move of any other float that may be re-recorded
TOLERANCE = 1e-14


def _floats(record: dict) -> dict:
    """(group, name) -> float of one seed's record."""
    out = {("defects", k): v for k, v in record["defects"].items()}
    out[("max_defect", "max_defect")] = record["max_defect"]
    out.update({("i_norm_diagnostics", k): v for k, v in record["i_norm_diagnostics"].items()})
    return out


def compare(reference: dict, reruns: dict, tolerance: float = TOLERANCE) -> tuple[list, list]:
    """The rows (seed, name, old, new, |delta|) of every float that differs
    between the reference's seeds and ``reruns`` (seed -> suite report), and
    the reasons the difference is refused."""
    rows, refused = [], []
    for seed, want in reference["seeds"].items():
        old, new = _floats(want), _floats(reruns[seed])
        for key in sorted(old.keys() ^ new.keys()):
            refused.append(f"seed {seed}: {key[1]} is {'missing' if key in old else 'new'}")
        for key in sorted(old.keys() & new.keys()):
            if old[key] == new[key]:
                continue
            delta = abs(new[key] - old[key])
            rows.append((seed, key[1], old[key], new[key], delta))
            if key[0] in FIXED:
                refused.append(f"seed {seed}: {key[1]} moved")
            if not delta <= tolerance:
                refused.append(f"seed {seed}: {key[1]} moved by {delta:.3g} > {tolerance:g}")
    return rows, refused


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from nelsonlab.algebra import run_algebra_suite

    reference = json.loads(REFERENCE.read_text())
    reruns = {seed: run_algebra_suite(n_modes=4, n_max=3, draws=100, sigma=0.2, seed=int(seed))
              for seed in reference["seeds"]}
    rows, refused = compare(reference, reruns)
    print(f"{'seed':>6}  {'identity':<22} {'old':>24} {'new':>24} {'|delta|':>9}")
    for seed, name, old, new, delta in rows:
        print(f"{seed:>6}  {name:<22} {old!r:>24} {new!r:>24} {delta:9.2e}")
    print(f"{len(rows)} of {sum(map(len, map(_floats, reference['seeds'].values())))} "
          f"floats moved over {len(reruns)} seeds")
    for reason in refused:
        print("refused:", reason)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
