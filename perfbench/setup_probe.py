"""Child-process probes started by run.py; each runs in a fresh interpreter.

    python3 perfbench/setup_probe.py setup <workload> <seed>
        import weakmellin.cli and build the workload's jobs, then exit;
        the parent times the whole child, interpreter start included.

    python3 perfbench/setup_probe.py cli
        print {"import_s": ..., "scipy_modules": ...} for a bare
        ``import weakmellin.cli``.

    python3 perfbench/setup_probe.py reference
        import a fixed set of modules that weakmellin also imports (numpy
        and some of the standard library), none of weakmellin, then exit;
        the parent times it as a measure of the machine's speed at
        starting an interpreter and importing.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["cli"]:
        start = time.perf_counter()
        import weakmellin.cli  # noqa: F401

        elapsed = time.perf_counter() - start
        scipy = sum(1 for name in sys.modules if name.split(".")[0] == "scipy")
        print(json.dumps({"import_s": elapsed, "scipy_modules": scipy}))
        return 0
    if argv[:1] == ["reference"]:
        import argparse, dataclasses, decimal, fractions  # noqa: F401, E401

        import numpy  # noqa: F401

        return 0
    if argv[:1] == ["setup"] and len(argv) == 3:
        import weakmellin.cli  # noqa: F401

        import workloads

        workloads.build_jobs(argv[1], int(argv[2]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
