"""The measurement harness: timers, table rendering, paper data, and the
workload fixtures (smoke-level: tiny batches)."""

import pytest

from repro.bench import (
    PAGE_SIZES,
    Table1Fixture,
    Table4Fixture,
    format_table,
    make_documents,
    measure,
    measure_batch,
    paper,
)


class TestTimer:
    def test_measure_returns_positive(self):
        result = measure(lambda: sum(range(50)), min_time=0.001, rounds=2)
        assert result.ns_per_op > 0
        assert result.us_per_op == result.ns_per_op / 1000.0

    def test_measure_calibrates_number(self):
        result = measure(lambda: None, min_time=0.001, rounds=2)
        assert result.number >= 1

    def test_measure_batch(self):
        calls = []

        def batched(n):
            calls.append(n)

        result = measure_batch(batched, batch=100, rounds=2)
        assert calls == [100, 100]
        assert result.number == 100


class TestTableRendering:
    def test_alignment_and_values(self):
        text = format_table(
            "Demo", ["name", "value"],
            [["row-a", 1.234], ["row-b", 12345.0]],
        )
        assert "Demo" in text
        assert "row-a" in text
        assert "1.234" in text
        assert "12,345" in text

    def test_large_and_small_float_formats(self):
        text = format_table("T", ["x"], [[0.031], [42.5], [9001.0]])
        assert "0.031" in text
        assert "42.5" in text
        assert "9,001" in text


class TestPaperData:
    def test_all_tables_present(self):
        assert set(paper.TABLE1["rows"]) == {
            "Regular method invocation",
            "Interface method invocation",
            "Thread info lookup",
            "Acquire/release lock",
            "J-Kernel LRMI",
        }
        assert set(paper.TABLE2["rows"]) == {
            "NT-RPC", "COM out-of-proc", "COM in-proc",
        }
        assert set(paper.TABLE5["rows"]) == {
            "10 bytes", "100 bytes", "1000 bytes",
        }
        assert set(paper.TABLE6["rows"]) == {
            "L4", "Exokernel", "Eros", "J-Kernel",
        }

    def test_paper_shapes_internally_consistent(self):
        t1 = paper.TABLE1["rows"]
        # the paper's own numbers satisfy the shapes we assert of ours
        assert t1["Interface method invocation"][0] > \
            10 * t1["Regular method invocation"][0]
        assert t1["Acquire/release lock"][1] > \
            5 * t1["Acquire/release lock"][0]
        t2 = paper.TABLE2["rows"]
        assert t2["COM out-of-proc"] > 1000 * t2["COM in-proc"]
        for iis, jws, jk in paper.TABLE5["rows"].values():
            assert jws < iis / 2
            assert jk > iis / 2


class TestWorkloadFixtures:
    def test_documents_cover_page_sizes(self):
        documents = make_documents()
        for size in PAGE_SIZES:
            assert len(documents[f"/doc{size}"]) == size

    @pytest.mark.parametrize("profile", ["msvm", "sunvm"])
    def test_table1_fixture_measures(self, profile):
        fixture = Table1Fixture(profile)
        row = fixture.row(batch=60)
        assert set(row) == set(paper.TABLE1["rows"])
        assert all(value > 0 for value in row.values())

    def test_table1_lrmi3_returns_value(self):
        fixture = Table1Fixture("sunvm")
        assert fixture.lrmi3_us(batch=30) > 0

    def test_table4_fixture_measures_all_shapes(self):
        fixture = Table4Fixture()
        for shape in Table4Fixture.SHAPES:
            assert fixture.copy_us(shape, "serial", min_time=0.002) > 0
            assert fixture.copy_us(shape, "fast", min_time=0.002) > 0

    def test_table4_raw_bytes_variant(self):
        fixture = Table4Fixture()
        assert fixture.raw_bytes_us(64, "serial", min_time=0.002) > 0


class TestTable6Fixture:
    """Smoke: the cross-process fixture measures, and the paper's
    in-process-wins shape holds with a wide margin."""

    def test_crossing_costs_have_paper_shape(self):
        from repro.bench import Table6Fixture

        fixture = Table6Fixture()
        try:
            inproc = fixture.inproc_null_us(min_time=0.02)
            xproc = fixture.xproc_null_us(min_time=0.02)
        finally:
            fixture.close()
        assert inproc > 0
        assert xproc > 5 * inproc, (inproc, xproc)

    def test_prefork_throughput_positive(self):
        from repro.bench import Table6Fixture

        pages = Table6Fixture.prefork_pages_per_sec(
            1, clients=2, requests_per_client=25
        )
        assert pages > 0
