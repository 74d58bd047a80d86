"""Entry point the benchmark contract names: ``python3
benchmarks/jkbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Puts the package's parent directory and the repo's ``src`` on the path
(the contract's command may name nothing outside the benchmark's own
directory), then hands over to ``cli.main``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from jkbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
