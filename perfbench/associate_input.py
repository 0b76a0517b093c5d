"""Write the associate-6k input CSV, then exit.

``workloads.Associate.prepare`` runs this as a child process and waits for
it, so that generating the input does not set the benchmark process's peak
memory.

    python3 perfbench/associate_input.py SEED PATH
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports synthcat)

workloads.write_associate_input(int(sys.argv[1]), Path(sys.argv[2]))
