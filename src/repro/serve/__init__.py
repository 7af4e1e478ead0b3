"""``repro serve``: the asyncio UDP/TCP front end over the simulated core.

Everything in this package runs in *wall-clock* territory: it binds real
sockets, reads real time and answers real ``dig`` queries, fronting the
same :class:`~repro.core.caching_server.CachingServer` the replays
exercise, swapped onto a :class:`~repro.serve.clock.WallClock` through
the Clock protocol of DESIGN.md §15.  One asyncio loop thread does all
of it: each query is resolved inside the callback that received it,
against the in-process simulated network.

Because wall-clock reads are the point here, ``serve/`` is the one
sanctioned allowlist in the REP001 determinism gate; the simulated core
(``core/``, ``simulation/``) stays under the full gate and never imports
this package (``tests/devtools/test_layering.py`` holds that), so a
replay cannot reach these modules' time reads.
"""

from repro.serve.spec import ServeSpec
from repro.serve.wire import (
    DecodedMessage,
    DecodedQuery,
    WireFormatError,
    decode_message,
    decode_query,
    encode_query,
    encode_response,
)

__all__ = [
    "DecodedMessage",
    "DecodedQuery",
    "ServeSpec",
    "WireFormatError",
    "decode_message",
    "decode_query",
    "encode_query",
    "encode_response",
    "serve",
]


def serve(spec: ServeSpec) -> int:
    """Run the DNS front end described by ``spec`` until interrupted.

    The stable programmatic entry point (also exported via
    ``repro.api``); equivalent to the ``repro serve`` subcommand.
    Returns a process exit code.
    """
    from repro.serve.cli import run_serve

    return run_serve(spec)
