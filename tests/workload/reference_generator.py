"""The one-query-at-a-time trace generator, kept as the tests' oracle.

This is the body ``TraceGenerator.generate`` had before it was turned
into array operations, unchanged apart from ``self`` becoming the
``generator`` argument.  It draws from the same ``rng`` call sequence
and then builds every row in a Python loop, one ``searchsorted`` per
query: slow, and plainly right.  ``test_generator_reference.py`` holds
the vectorised ``generate`` equal to it row for row.

Tests only: nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

from repro.workload.generator import DAY, TraceGenerator
from repro.workload.trace import Trace, TraceQuery


def reference_generate(
    generator: TraceGenerator, name: str, stream: int = 0
) -> Trace:
    """What ``generator.generate(name, stream)`` must return."""
    config = generator.config
    rng = np.random.default_rng((generator._seed, stream, 0xD25))
    times = generator._arrival_times(rng)
    count = len(times)

    clients = rng.integers(0, config.num_clients, size=count)
    private_sets = rng.integers(
        0,
        len(generator._zones),
        size=(config.num_clients, config.private_zones_per_client),
    )

    shared_mask = rng.random(count) < config.shared_interest_fraction
    zone_indices = np.empty(count, dtype=np.int64)
    shared_count = int(shared_mask.sum())
    zone_indices[shared_mask] = np.searchsorted(
        generator._zone_cdf, rng.random(shared_count)
    )
    private_mask = ~shared_mask
    private_count = count - shared_count
    slot = rng.integers(0, config.private_zones_per_client, size=private_count)
    zone_indices[private_mask] = private_sets[clients[private_mask], slot]

    host_draws = rng.random(count)
    qtypes, qtype_weights = zip(*config.qtype_mix)
    type_indices = rng.choice(
        len(qtypes), size=count, p=np.asarray(qtype_weights)
    )

    queries: list[TraceQuery] = []
    hosts = generator._hosts
    host_cdfs = generator._host_cdfs
    for position in range(count):
        zone_index = int(zone_indices[position])
        zone_hosts = hosts[zone_index]
        cdf = host_cdfs[len(zone_hosts)]
        host_index = int(np.searchsorted(cdf, host_draws[position]))
        queries.append(
            TraceQuery(
                time=float(times[position]),
                client_id=int(clients[position]),
                qname=zone_hosts[host_index],
                rrtype=qtypes[int(type_indices[position])],
            )
        )
    return Trace(
        name=name, duration=config.duration_days * DAY, queries=queries
    )
