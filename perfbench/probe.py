"""Set-up probe: import synthcat and parse one workload's config, then exit.

``run.py`` times this whole process from its start, so ``setup_s`` covers
interpreter start, ``import synthcat`` and the config parse.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports synthcat)

workloads.WORKLOADS[sys.argv[1]]().parse(int(sys.argv[2]))
