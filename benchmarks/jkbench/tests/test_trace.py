import json

from .. import trace


def _tree():
    # page 0: handle ⊃ route ⊃ body, and a reply written after the page
    # span closed (a streamed response); page 1: one child.
    return [
        ("loadgen.page", 0, 100),
        ("web.isapi.handle", 10, 60),
        ("web.jkweb.route", 20, 50),
        ("servlet.body", 30, 40),
        ("ipc.lrmi.gateway", 70, 120),
        ("loadgen.page", 110, 200),
        ("web.isapi.handle", 115, 150),
    ]


def test_nesting_assigns_op_ids_and_parents():
    records = trace.nest(reversed(_tree()))  # input order must not matter
    assert [r["name"] for r in records] == [s[0] for s in _tree()]
    assert [r["op_id"] for r in records] == [0, 0, 0, 0, 0, 1, 1]
    assert [r["parent"] for r in records] == [None, 0, 1, 2, 0, None, 5]


def test_self_time_is_duration_minus_what_children_cover():
    records = trace.nest(_tree())
    own = trace.self_times(records)
    # page 0: 100 - handle 50 - the 30 ns of the gateway span inside it
    assert own == [20, 20, 20, 10, 50, 55, 35]
    # nothing is lost: per operation, self times add up to the union of
    # its spans' durations once the overhang is counted on the child
    assert sum(own[:5]) == 120 and sum(own[5:]) == 90


def test_spans_before_the_first_root_belong_to_no_operation():
    records = trace.nest([("web.isapi.handle", 0, 5),
                          ("loadgen.page", 10, 20)])
    assert [r["op_id"] for r in records] == [-1, 0]


def test_recorder_gates_and_drains():
    recorder = trace.Recorder()
    double = recorder.wrap("x.double", lambda value: value * 2)
    assert double(2) == 4 and recorder.spans == []
    recorder.enabled = True
    assert double(3) == 6
    (name, start, end), = recorder.drain()
    assert name == "x.double" and start <= end
    assert recorder.spans == []


def test_trace_file_keeps_a_prefix_of_operations(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, trace.nest(_tree()), limit_ops=1)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert {line["op_id"] for line in lines} == {0}
    assert set(lines[0]) == {"name", "op_id", "parent", "start_ns", "end_ns"}
