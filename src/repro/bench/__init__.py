"""Paper-shape fixtures: timers, the paper's reported numbers, table
rendering, one workload fixture per paper table, and the comparators
the paper measures against (``baselines``).  ``benchmarks/test_table*.py``
assert shapes on these; performance is measured by ``benchmarks/jkbench``."""

from . import paper
from .table import format_table
from .timer import BenchResult, measure, measure_batch
from .workloads import (
    BROWSER_HEADERS,
    Chunk,
    Table1Fixture,
    Table3Fixture,
    Table4Fixture,
    Table6Fixture,
    TypedChunk,
    build_iis,
    build_iis_jkernel,
    build_jws,
    make_documents,
    PAGE_SIZES,
)

__all__ = [
    "BROWSER_HEADERS",
    "BenchResult",
    "Chunk",
    "PAGE_SIZES",
    "Table1Fixture",
    "Table3Fixture",
    "Table4Fixture",
    "Table6Fixture",
    "TypedChunk",
    "build_iis",
    "build_iis_jkernel",
    "build_jws",
    "make_documents",
    "measure",
    "measure_batch",
    "paper",
]
