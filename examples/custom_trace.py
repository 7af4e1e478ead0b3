#!/usr/bin/env python3
"""Replaying your own traces: the text trace format end-to-end.

The paper evaluated on university packet traces.  This example shows the
substitution path for real data: export a trace to the text format, edit
or replace it with one derived from your resolver logs, read it back and
replay it against the simulator.

Usage::

    python examples/custom_trace.py
"""

import tempfile
from pathlib import Path

from repro import (
    AttackSpec,
    ResilienceConfig,
    Scale,
    Trace,
    TraceQuery,
    make_scenario,
    read_trace,
    run_replay,
    write_trace,
)

DAY = 86400.0


def main() -> None:
    scenario = make_scenario(Scale.TINY)

    # 1. Export a generated trace to the interchange format, in a
    #    directory that is removed again once the trace is read back.
    generated = scenario.trace("TRC1")
    with tempfile.TemporaryDirectory(prefix="repro-traces-") as workdir:
        path = Path(workdir) / "trc1.trace"
        write_trace(generated, path)
        size_kb = path.stat().st_size / 1024
        print(f"wrote {len(generated):,} queries to {path} ({size_kb:.0f} KiB)")
        with open(path) as handle:
            for line in list(handle)[:5]:
                print(f"  | {line.rstrip()}")

        # 2. Read it back (this is where your own file would enter).
        loaded = read_trace(path)
    print(f"re-read {len(loaded):,} queries, duration "
          f"{loaded.duration / DAY:g} days\n")

    # 3. Or build a trace programmatically (e.g. from resolver logs).
    zones = list(scenario.built.catalog)
    hand_written = Trace(
        name="hand-rolled",
        duration=7 * DAY,
        queries=[
            TraceQuery(time=float(i * 450), client_id=i % 3,
                       qname=scenario.built.catalog[zones[i % 8]][0])
            for i in range(1200)
        ],
    )
    hand_written.validate_ordering()

    # 4. Replay both against the same hierarchy and attack.
    for trace in (loaded, hand_written):
        result = run_replay(
            scenario.built, trace, ResilienceConfig.refresh(),
            attack=AttackSpec(),
        )
        print(
            f"replayed {trace.name:>11}: {result.metrics.sr_queries:,} queries, "
            f"{result.metrics.sr_attack_failure_rate:.1%} failed during the attack"
        )

    print("\nTo use a real trace: convert your resolver log to")
    print("'time_seconds client_id qname qtype' lines and point read_trace at it.")


if __name__ == "__main__":
    main()
