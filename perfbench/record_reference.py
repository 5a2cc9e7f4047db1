"""Record the reference outputs that the census, sums and suite checks compare against.

  python3 perfbench/record_reference.py

Run from the root of a pclab checkout whose outputs are trusted; it rewrites
``perfbench/reference.json``.  The recorded outputs do not depend on the seed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    reference = {}
    for section in ("census", "sums", "suite"):
        reference[section] = {}
        for op in workloads.BUILDERS[section](seed=0):
            out = op.run()
            reference[section][op.name] = workloads.as_json(out if section == "suite" else out.to_json())
            print(f"recorded {section}/{op.name}", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
