"""Record the bounds reference table that the ``bounds`` workload checks against.

    python3 perfbench/record_reference.py

Run from the root of a source checkout whose bounds are known to be right;
it overwrites ``perfbench/bounds_reference.json``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stripeloc  # noqa: E402
from workloads import REFERENCE_PATH, reference_table  # noqa: E402

if __name__ == "__main__":
    table = reference_table(stripeloc.canonical_scenario())
    REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['sweep'])} sweep rows and {len(table['heatmap'])} heatmap cells "
          f"to {REFERENCE_PATH}")
