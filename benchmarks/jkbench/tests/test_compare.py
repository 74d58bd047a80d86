import json

from .. import compare

_CONTRACT = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "throughput_ops_s", "better": "higher", "bound": 0.08},
        {"name": "latency_p50_us", "better": "lower", "bound": 0.08},
    ],
}


def _result(throughput, latency):
    def metric(values):
        return {"value": sorted(values)[len(values) // 2], "windows": values}

    return {"sets": [{"w:0": {"metrics": {
        "throughput_ops_s": metric(throughput),
        "latency_p50_us": metric(latency)}}}]}


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.0]
    assert compare.verdict(steady, steady, "higher", 0.08)[-1] == "ok"
    slower = [value * 0.9 for value in steady]
    assert compare.verdict(steady, slower, "higher", 0.08)[-1] == "regressed"
    assert compare.verdict(steady, slower, "lower", 0.08)[-1] == "ok"
    noisy = [80.0, 120.0, 95.0, 105.0]
    assert compare.verdict(steady, noisy, "higher", 0.08)[-1] == "unresolved"


def test_sets_are_the_observations_when_a_file_holds_several():
    one = _result([1.0, 2.0, 3.0, 4.0], [5.0] * 4)
    assert compare.observations(one, "w", "throughput_ops_s") == [
        1.0, 2.0, 3.0, 4.0]
    several = {"sets": one["sets"] * 3}
    assert compare.observations(several, "w", "throughput_ops_s") == [
        3.0, 3.0, 3.0]


def test_main_exits_non_zero_only_on_a_regression(tmp_path, capsys):
    good = tmp_path / "a.json"
    bad = tmp_path / "b.json"
    good.write_text(json.dumps(_result([100.0] * 4, [10.0] * 4)))
    bad.write_text(json.dumps(_result([100.0] * 4, [12.0] * 4)))
    assert compare.main(good, good, _CONTRACT) == 0
    assert compare.main(good, bad, _CONTRACT) == 1
    assert compare.main(bad, good, _CONTRACT) == 0  # an improvement
    assert "regressed" in capsys.readouterr().out
