from zlib import crc32

from .. import script


def test_same_seed_same_bytes_other_seed_other_bytes():
    for build in (
        lambda seed: script.pages_script(seed, 0, length=512),
        lambda seed: script.pages_script(seed, 1, bulk=True, length=512),
        lambda seed: script.calls_script(seed, script.HOSTED_MIX, "calls"),
        lambda seed: script.arrivals(seed, [(0.5, True)],
                                     {script.STEADY: 100,
                                      script.ABUSER: 300}),
        lambda seed: script.chunk_payload(seed, 100),
    ):
        assert script.digest(build(17)) == script.digest(build(17))
        assert script.digest(build(17)) != script.digest(build(18))


def test_connections_of_one_seed_get_different_scripts():
    assert (script.digest(script.pages_script(17, 0, length=256))
            != script.digest(script.pages_script(17, 1, length=256)))


def test_page_mix_and_expectations():
    lines = script.pages_script(17, 0, bulk=True, length=4000)
    share = [sum(1 for line in lines if line[0] == cls) / len(lines)
             for cls in range(4)]
    for got, want in zip(share, (0.45, 0.27, 0.18, 0.10)):
        assert abs(got - want) < 0.03
    keys = {line[1].split(b"/")[3] for line in lines
            if line[0] == script.DYNAMIC}
    assert len(keys) > 512  # more keys than the bridge's request cache
    for cls, request, status, length, checksum in lines[:200]:
        assert status == 200
        if cls == script.POST:
            posted = request.split(b"\r\n\r\n", 1)[1]
            assert len(posted) == script.POST_BYTES
            expected = script.sum_body(posted)
            assert (length, checksum) == (len(expected), crc32(expected))


def test_request_bytes_are_what_the_servers_parser_reads():
    from repro.web import RequestParser

    parser = RequestParser()
    lines = script.pages_script(17, 0, length=64)
    for _, request, *_ in lines:
        parser.feed(request)
    for _, request, *_ in lines:
        parsed = parser.next_request()
        assert parsed.keep_alive and parsed.path.startswith("/servlet/")
        assert request.endswith(parsed.body)
    assert parser.next_request() is None and not parser.mid_request


def test_open_loop_schedule_offers_exactly_the_rate():
    rates = {script.STEADY: 100, script.ABUSER: 300}
    schedule = script.arrivals(5, [(1.0, False), (2.0, True)], rates)
    dues = [entry[0] for entry in schedule]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 3.0
    steady = [e for e in schedule if e[1] == script.STEADY]
    abuser = [e for e in schedule if e[1] == script.ABUSER]
    assert len(steady) == 300 and len(abuser) == 600
    assert all(entry[0] >= 1.0 for entry in abuser)
    numbers = [int(entry[2].split(b" ")[1].rsplit(b"/", 1)[1])
               for entry in schedule]
    assert numbers == list(range(len(schedule)))


def test_call_mix_follows_the_call_shares():
    lines = script.calls_script(17, script.HOSTED_MIX, "calls_hosted")
    null_share = sum(1 for line in lines if line[0] == "null") / len(lines)
    assert abs(null_share - 0.55) < 0.04
    assert {line[0] for line in lines} == {n for n, _ in script.HOSTED_MIX}
    assert abs(sum(share for _, share in script.HOSTED_MIX) - 1) < 1e-9
    assert abs(sum(share for _, share in script.VM_MIX) - 1) < 1e-9
