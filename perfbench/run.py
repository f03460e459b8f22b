"""Run the pxom benchmark from the root of a pxom checkout.

    python3 perfbench/run.py --workload system --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md beside this file.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "pxom" / "__init__.py").is_file():
        print("error: no pxom sources under %s; run from a pxom checkout"
              % (ROOT / "src"), file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import main
    sys.exit(main())
