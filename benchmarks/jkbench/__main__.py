"""``python -m benchmarks.jkbench`` (with ``PYTHONPATH=src``)."""

import sys

from .cli import main

sys.exit(main(sys.argv[1:]))
