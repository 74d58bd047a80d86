"""Seeded input scripts: every request and call a workload will issue is
generated here, before any timing starts; the system under test only
ever sees these inputs.  Same seed, same bytes.

Nothing in this module imports the system under test: the expected
status, length and CRC32 of every page are computed from the same pure
body functions the bench servlets use (``*_body`` below).
"""

from __future__ import annotations

import hashlib
import random
from zlib import crc32

# -- pages ---

STATIC, DYNAMIC, POST, BULK = range(4)
PAGE_CLASSES = ("static", "dynamic", "post", "bulk")
STATIC_SIZES = (10, 100, 1000)
ECHO_SIZES = (10, 100, 1000, 8000)
#: Distinct echo keys: larger than IsapiBridge's 512-entry request cache,
#: so the dynamic class always misses it while static always hits.
ECHO_KEYS = 4096
POST_BYTES = 1024
BULK_BYTES = 65536
BULK_VARIANTS = 8

#: WebStone-era browser headers: the server parses all of it per request.
_HEADERS = (
    "Host: bench.local\r\n"
    "User-Agent: Mozilla/4.0 (compatible; jkbench)\r\n"
    "Accept: text/html, image/gif, image/jpeg, */*\r\n"
    "Accept-Language: en\r\n"
    "Connection: keep-alive\r\n"
)


def request_bytes(method, path, body=b"", keep_alive=True):
    """jkbench's own request formatter (HTTP/1.0, like the Table 5 era)."""
    headers = _HEADERS if keep_alive else _HEADERS.replace(
        "keep-alive", "close")
    head = f"{method} {path} HTTP/1.0\r\n{headers}"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def static_body(size):
    return bytes(ord("a") + (i % 26) for i in range(size))


def echo_body(key, size):
    unit = key.encode("ascii") + b"."
    return (unit * (size // len(unit) + 1))[:size]


def sum_body(posted):
    return str(sum(posted)).encode("ascii")


def bulk_body(variant):
    unit = bytes((variant * 31 + i) & 0xFF for i in range(256))
    return unit * (BULK_BYTES // 256)


def _page(cls, method, path, expected, body=b""):
    return (cls, request_bytes(method, path, body), 200, len(expected),
            crc32(expected))


def pages_script(seed, connection, *, bulk=False, length=16384):
    """One connection's request script: a list of
    ``(class, request_bytes, status, body_length, body_crc32)``.

    In-process mix: 50 % static, 30 % dynamic, 20 % post.  With ``bulk``
    a tenth of the operations become 64 KiB pages and the other classes
    keep their proportions.
    """
    rng = random.Random(f"{seed}:pages:{connection}:{int(bulk)}")
    statics = [_page(STATIC, "GET", f"/servlet/doc{n}", static_body(n))
               for n in STATIC_SIZES]
    bulks = [_page(BULK, "GET", f"/servlet/bulk/{v}", bulk_body(v))
             for v in range(BULK_VARIANTS)]
    script = []
    for _ in range(length):
        if bulk and rng.random() < 0.10:
            script.append(rng.choice(bulks))
            continue
        draw = rng.random()
        if draw < 0.50:
            script.append(rng.choice(statics))
        elif draw < 0.80:
            key = f"k{rng.randrange(ECHO_KEYS):04d}"
            size = rng.choice(ECHO_SIZES)
            script.append(_page(DYNAMIC, "GET",
                                f"/servlet/echo/{key}/{size}",
                                echo_body(key, size)))
        else:
            posted = rng.randbytes(POST_BYTES)
            script.append(_page(POST, "POST", "/servlet/sum",
                                sum_body(posted), posted))
    return script


def native_script(size=100):
    """The interleaved native segment: one cached document."""
    return [_page(STATIC, "GET", f"/doc{size}", static_body(size))]


def servlet_static_script(size=100):
    return [_page(STATIC, "GET", f"/servlet/doc{size}", static_body(size))]


# -- hosted calls ---

BATCH = 64
HOSTED_MIX = (
    ("null", 0.55), ("ints3", 0.15), ("fast100", 0.10), ("serial100", 0.05),
    ("fast1000", 0.04), ("serial1000", 0.02), ("cap_pass", 0.04),
    ("guarded", 0.03), ("lifecycle", 0.02),
)
VM_MIX = (("vm_null", 0.60), ("vm_ints3", 0.20), ("vm_local", 0.20))


def calls_script(seed, mix, name, length=4096):
    """Batches of :data:`BATCH` same-class calls, classes drawn by call
    share: ``(class_name, a, b, c)`` with three seeded small ints (used
    by the argument-carrying classes, ignored by the rest)."""
    rng = random.Random(f"{seed}:{name}")
    names = [entry[0] for entry in mix]
    weights = [entry[1] for entry in mix]
    return [(rng.choices(names, weights)[0], rng.randrange(1000),
             rng.randrange(1000), rng.randrange(1000))
            for _ in range(length)]


def chunk_payload(seed, size):
    """Java-style signed byte values, element-wise (Table 4's payload)."""
    rng = random.Random(f"{seed}:chunk:{size}")
    return [rng.randrange(-128, 128) for _ in range(size)]


def chunk_check(payload):
    """What a sink returns for a payload: proves the copy arrived whole."""
    return payload[0] * 31 + payload[-1] * 7 + len(payload)


# -- open loop ---

STEADY, ABUSER = 0, 1
TENANTS = ("steady", "abuser")
STEADY_SLEEP_US = 2000


def bounded_pareto(rng, alpha, lo, hi):
    u = rng.random()
    la, ha = lo ** alpha, hi ** alpha
    return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)


def sleep_body(tenant, sleep_us):
    return f"{TENANTS[tenant]} slept {sleep_us}".encode("ascii")


def arrivals(seed, segments, rates):
    """The whole open-loop schedule, sorted by due time:
    ``(due_s, tenant, request_bytes, body_length, body_crc32)``.

    ``segments`` is a list of ``(duration_s, abuser_on)`` laid end to
    end.  Within a segment arrival times are a Poisson process
    conditioned on its count: each tenant gets exactly ``rate *
    duration`` arrivals at independent uniform instants, so every seed
    offers the same load and the seed only moves *when* it arrives and
    how long the abuser's requests sleep (bounded Pareto, alpha 1.5,
    2-40 ms).  The arrival's number rides the path, which is how a
    server-side span finds its operation when requests overlap.
    """
    rng = random.Random(f"{seed}:arrivals")
    timed = []
    origin = 0.0
    for duration, abuser_on in segments:
        for tenant in (STEADY, ABUSER):
            if tenant == ABUSER and not abuser_on:
                continue
            for _ in range(int(rates[tenant] * duration)):
                sleep_us = (STEADY_SLEEP_US if tenant == STEADY else
                            int(bounded_pareto(rng, 1.5, 2.0, 40.0) * 1000))
                timed.append((origin + rng.random() * duration, tenant,
                              sleep_us))
        origin += duration
    timed.sort()
    schedule = []
    for number, (due, tenant, sleep_us) in enumerate(timed):
        expected = sleep_body(tenant, sleep_us)
        schedule.append((
            due, tenant,
            request_bytes(
                "GET", f"/servlet/{TENANTS[tenant]}/{sleep_us}/{number}",
                keep_alive=False),
            len(expected), crc32(expected),
        ))
    return schedule


def digest(script):
    """Stable fingerprint of a script (recorded; used by the self-tests)."""
    return hashlib.sha256(repr(script).encode("utf-8")).hexdigest()[:16]
