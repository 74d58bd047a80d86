"""The import graph is a contract: the product packages load only what
they run.  The MiniJVM, its J-Kernel, the paper's comparators
(``repro.bench``) and the toolchain are users of the product, never
dependencies of it — an embedder of the web stack pays for none of them."""

import os
import subprocess
import sys

import pytest

import repro

FORBIDDEN = ("repro.jvm", "repro.jkvm", "repro.bench", "repro.toolchain")

_SCAN = (
    "import sys, {package}\n"
    "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
)


@pytest.mark.parametrize("package", ["repro.web", "repro.ipc", "repro.fleet"])
def test_product_package_loads_no_vm_bench_or_toolchain(package):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    loaded = subprocess.run(
        [sys.executable, "-c", _SCAN.format(package=package)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert package in loaded
    strays = [name for name in loaded
              if any(name == root or name.startswith(root + ".")
                     for root in FORBIDDEN)]
    assert not strays, f"import {package} loaded {strays}"
