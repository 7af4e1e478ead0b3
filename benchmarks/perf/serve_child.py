"""Launcher for the *traced* ``repro serve`` child.

``python serve_child.py SAMPLES.json serve --scale small ...`` installs
timing wrappers around the front end's layer boundaries — the two wire
functions the server calls and ``CachingServer.handle_stub_query`` — then
hands the remaining arguments to the ordinary ``repro`` CLI, so the child
is the real server with clocks around its public calls.  On the way out
(the benchmark stops it with SIGTERM, routed to the clean return ``repro
serve`` gives Ctrl-C) it writes every sample to ``SAMPLES.json``:

* ``decode_query_ns`` / ``encode_response_ns`` — one duration per packet;
* ``resolve_ns`` — ``handle_stub_query`` on the resolver thread;
* ``hop_ns`` — end of ``decode_query`` on the loop thread to the start of
  ``handle_stub_query`` on the resolver thread, matched by query name
  (singleflight followers never reach the resolver, so the match is 1:1);
* ``cache_entries_end`` — the core cache's size when the server stopped.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from typing import Any


def install() -> dict[str, Any]:
    """Wrap the layer boundaries; returns the dict the samples land in."""
    import repro.serve.server as front_end
    from repro.core.caching_server import CachingServer

    now = time.perf_counter_ns
    samples: dict[str, Any] = {
        "decode_query_ns": [], "encode_response_ns": [],
        "resolve_ns": [], "hop_ns": [], "core": None,
    }
    decoded_at: dict[Any, int] = {}
    decode_query = front_end.decode_query
    encode_response = front_end.encode_response
    handle_stub_query = CachingServer.handle_stub_query

    def timed_decode(data: bytes) -> Any:
        begin = now()
        query = decode_query(data)
        end = now()
        samples["decode_query_ns"].append(end - begin)
        decoded_at[query.question.name] = end
        return query

    def timed_encode(*args: Any, **kwargs: Any) -> bytes:
        begin = now()
        payload = encode_response(*args, **kwargs)
        samples["encode_response_ns"].append(now() - begin)
        return payload

    def timed_resolve(self: Any, qname: Any, rrtype: Any, at: float) -> Any:
        begin = now()
        decoded = decoded_at.pop(qname, None)
        if decoded is not None:
            samples["hop_ns"].append(begin - decoded)
        try:
            return handle_stub_query(self, qname, rrtype, at)
        finally:
            samples["resolve_ns"].append(now() - begin)
            samples["core"] = self

    # server.py imported the two codec functions by name, so its module
    # attributes are what its handlers call.
    front_end.decode_query = timed_decode
    front_end.encode_response = timed_encode
    CachingServer.handle_stub_query = timed_resolve  # type: ignore[method-assign]
    return samples


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: serve_child.py SAMPLES.json <repro arguments>", file=sys.stderr)
        return 2
    out, arguments = argv[0], argv[1:]
    # SIGTERM takes the same clean path `repro serve` gives Ctrl-C, and,
    # unlike SIGINT, is never inherited as "ignored" from a background job.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    samples = install()
    from repro.cli import main as repro_main

    try:
        status = repro_main(arguments)
    finally:
        core = samples.pop("core")
        samples["cache_entries_end"] = (
            core.cache.total_entry_count() if core is not None else 0
        )
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(samples, handle)
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
