"""The ``repro serve`` subcommand: handler + registry entry.

Registered through the same :class:`~repro.experiments.registry.CommandDef`
machinery as the extension experiments: every flag below is generated
from :class:`~repro.serve.spec.ServeSpec`.
"""

from __future__ import annotations

import asyncio

from repro.experiments.registry import CommandDef
from repro.serve.spec import ServeSpec


async def _serve_forever(spec: ServeSpec) -> int:
    from repro.serve.server import DnsFrontEnd

    front_end = DnsFrontEnd(spec)
    await front_end.start()
    try:
        if front_end.udp_address is None:
            raise RuntimeError("front end did not bind a UDP port")
        host, port = front_end.udp_address
        print(f"repro serve: DNS on {host}:{port} (udp+tcp), "
              f"scheme {spec.scheme}, seed {spec.seed}")
        if front_end.metrics_address is not None:
            mhost, mport = front_end.metrics_address
            print(f"repro serve: metrics on http://{mhost}:{mport}/metrics")
        names = front_end.sample_names(spec.print_names)
        for name in names:
            print(f"  try: dig @{host} -p {port} {name} A")
        await asyncio.Event().wait()  # until cancelled (Ctrl-C)
    finally:
        await front_end.stop()
    return 0


def run_serve(spec: ServeSpec) -> int:
    """Serve until interrupted."""
    try:
        return asyncio.run(_serve_forever(spec))
    except KeyboardInterrupt:
        print("repro serve: stopped")
        return 0


SERVE_COMMAND = CommandDef(
    name="serve",
    help="answer real DNS queries (UDP+TCP) from the simulated hierarchy",
    spec_type=ServeSpec,
    runner=run_serve,
)
