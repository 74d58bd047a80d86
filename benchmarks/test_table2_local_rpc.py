"""Table 2: local RPC costs using standard OS mechanisms (µs).

NT-RPC (cross-process socket RPC), COM out-of-proc (marshalled proxy to a
host process), COM in-proc (vtable call).  Shape claim: out-of-proc is
two or more orders of magnitude above in-proc (the paper's NT 4.0 gap was
~3300x; modern loopback IPC narrows it).
"""

import pytest

from repro.bench.paper import TABLE2
from repro.bench.table import format_table
from repro.bench.baselines.com import (
    IN_PROC,
    OUT_OF_PROC,
    ComInterface,
    ComRegistry,
    create_instance,
)
from repro.ipc import RpcClient, null_server


class _NullComponent:
    def null_op(self):
        return 0


def _registry():
    registry = ComRegistry()
    registry.register_class(
        "CLSID_Null", _NullComponent, ComInterface("INull", ["null_op"])
    )
    return registry


@pytest.fixture(scope="module")
def rpc_client():
    with null_server() as server:
        with RpcClient(server.path) as client:
            client.call("null")
            yield client


@pytest.fixture(scope="module")
def outproc_pointer():
    pointer = create_instance(_registry(), "CLSID_Null", OUT_OF_PROC)
    pointer.method("null_op")()
    yield pointer
    pointer._com_host.stop()


@pytest.mark.table(2)
class TestTable2:
    def test_ntrpc_null_call(self, benchmark, rpc_client):
        benchmark(lambda: rpc_client.call("null"))

    def test_com_out_of_proc_null(self, benchmark, outproc_pointer):
        bound = outproc_pointer.method("null_op")
        benchmark(bound)

    def test_com_in_proc_null(self, benchmark):
        pointer = create_instance(_registry(), "CLSID_Null", IN_PROC)
        bound = pointer.method("null_op")
        benchmark(bound)


@pytest.mark.table(2)
def test_table2_report(benchmark, rpc_client, outproc_pointer):
    from repro.bench.timer import measure

    results = {}

    def run():
        results["NT-RPC"] = measure(
            lambda: rpc_client.call("null"), number=200, rounds=3
        ).us_per_op
        bound_out = outproc_pointer.method("null_op")
        results["COM out-of-proc"] = measure(
            bound_out, number=200, rounds=3
        ).us_per_op
        in_proc = create_instance(_registry(), "CLSID_Null", IN_PROC)
        bound_in = in_proc.method("null_op")
        bound_in()  # same warmup treatment as the other rows' fixtures
        results["COM in-proc"] = measure(
            bound_in, number=200, rounds=3
        ).us_per_op

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, results[name], TABLE2["rows"][name]]
        for name in ("NT-RPC", "COM out-of-proc", "COM in-proc")
    ]
    print()
    print(format_table("Table 2 (measured vs paper, µs)",
                       ["mechanism", "measured", "paper"], rows))
    benchmark.extra_info.update(
        {name: round(value, 3) for name, value in results.items()}
    )
    # Shape: the process boundary costs orders of magnitude.  The paper
    # measured ~3300x on NT 4.0; modern loopback IPC is relatively much
    # cheaper (a few hundred x a plain Python call on this hardware), so
    # the durable claim we assert is >=2 orders of magnitude.
    assert results["COM out-of-proc"] > 100 * results["COM in-proc"]
    assert results["NT-RPC"] > 100 * results["COM in-proc"]
