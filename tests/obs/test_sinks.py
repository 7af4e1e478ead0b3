"""Sinks: JSONL goldens and lifecycle, Prometheus rendering of the tally."""

import pytest

from repro.obs import EventBus, EventKind, JsonlSink, render_prometheus


class TestJsonlSink:
    def test_golden_stream(self, tmp_path):
        target = tmp_path / "events.jsonl"
        bus = EventBus()
        sink = JsonlSink(target).attach(bus)
        bus.emit(EventKind.STUB_QUERY, 1.5, name="a.com.", rrtype="A")
        bus.emit(EventKind.CACHE_MISS, 1.5, name="a.com.", rrtype="A")
        sink.close()
        assert target.read_text(encoding="utf-8") == (
            '{"kind":"stub.query","name":"a.com.","rrtype":"A","seq":0,"t":1.5}\n'
            '{"kind":"cache.miss","name":"a.com.","rrtype":"A","seq":1,"t":1.5}\n'
        )

    def test_path_backed_sink_writes_empty_file_without_events(self, tmp_path):
        target = tmp_path / "events.jsonl"
        sink = JsonlSink(target)
        sink.close()
        assert target.read_text(encoding="utf-8") == ""

    def test_second_close_keeps_the_log(self, tmp_path):
        target = tmp_path / "events.jsonl"
        bus = EventBus()
        sink = JsonlSink(target).attach(bus)
        bus.emit(EventKind.STUB_QUERY, 1.0)
        bus.emit(EventKind.CACHE_HIT, 1.0)
        sink.close()
        sink.close()
        assert len(target.read_text(encoding="utf-8").splitlines()) == 2

    def test_event_after_close_raises_and_keeps_the_log(self, tmp_path):
        target = tmp_path / "events.jsonl"
        bus = EventBus()
        sink = JsonlSink(target).attach(bus)
        bus.emit(EventKind.STUB_QUERY, 1.0)
        sink.close()
        with pytest.raises(ValueError, match="already closed"):
            bus.emit(EventKind.CACHE_HIT, 2.0)
        assert len(target.read_text(encoding="utf-8").splitlines()) == 1


class TestRenderPrometheus:
    def test_golden_render(self):
        bus = EventBus()
        bus.emit(EventKind.STUB_QUERY, 1.0)
        bus.emit(EventKind.CACHE_HIT, 2.0)
        bus.emit(EventKind.CACHE_HIT, 3.5)
        assert render_prometheus(bus) == (
            "# HELP repro_events_total Simulation events by kind.\n"
            "# TYPE repro_events_total counter\n"
            'repro_events_total{kind="cache.hit"} 2\n'
            'repro_events_total{kind="stub.query"} 1\n'
            "# HELP repro_events_seen_total All simulation events.\n"
            "# TYPE repro_events_seen_total counter\n"
            "repro_events_seen_total 3\n"
            "# HELP repro_last_event_seconds Virtual time of the last event.\n"
            "# TYPE repro_last_event_seconds gauge\n"
            "repro_last_event_seconds 3.5\n"
        )

    def test_rendering_leaves_the_bus_quiet(self):
        """The bus counts, the renderer reads: nothing subscribes, so
        ``emit`` returns before constructing an Event."""
        bus = EventBus()
        assert "repro_events_seen_total 0" in render_prometheus(bus)
        assert bus.emit(EventKind.CACHE_HIT, 2.0, name="a.com.") is None
        body = render_prometheus(bus)
        assert bus.quiet
        assert 'repro_events_total{kind="cache.hit"} 1' in body
        assert "repro_last_event_seconds 2.0" in body


class TestCountOnlyPath:
    """A quiet bus books hot-path events with ``count``; a subscribed one
    builds and delivers them.  The totals must not tell the two apart."""

    def test_count_moves_what_emit_moves(self):
        counted, emitted = EventBus(), EventBus()
        emitted.subscribe(lambda event: None)
        assert counted.quiet and not emitted.quiet
        for bus in (counted, emitted):
            for kind, time in ((EventKind.CACHE_HIT, 2.0),
                               (EventKind.STUB_QUERY, 1.0),
                               (EventKind.CACHE_HIT, 3.0)):
                if bus.quiet:
                    bus.count(kind, time)
                else:
                    bus.emit(kind, time, name="a.com.")
        assert counted.counts() == emitted.counts()
        assert counted.emitted == emitted.emitted == 3
        assert counted.last_time == emitted.last_time == 3.0

    def test_served_workload_scrapes_identically(self):
        """The front end's resolver path (``handle_stub_query`` over the
        simulated network, misses then hits, the clock moving) leaves an
        unsubscribed bus and a subscribed one with the same totals and a
        byte-identical scrape body."""
        from repro.core.caching_server import CachingServer
        from repro.dns.rrtypes import RRType
        from repro.experiments.scenarios import Scale, make_scenario
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.network import Network

        built = make_scenario(Scale.TINY).built
        names = [hosts[0] for _zone, hosts in sorted(built.catalog.items())
                 if hosts][:12]
        buses, bodies, delivered = [], [], []
        for subscribed in (False, True):
            bus = EventBus()
            seen: list = []
            if subscribed:
                bus.subscribe(seen.append)
            engine = SimulationEngine()
            server = CachingServer(
                root_hints=built.tree.root_hints(),
                network=Network(built.tree),
                clock=engine,
                observer=bus,
            )
            for step, name in enumerate(names * 3):
                engine.advance_to(step * 7.5)
                server.handle_stub_query(name, RRType.A, engine.now)
            buses.append(bus)
            bodies.append(render_prometheus(bus))
            delivered.append(seen)
        quiet, loud = buses
        assert quiet.quiet and not loud.quiet
        assert quiet.counts() == loud.counts()
        assert quiet.counts()[EventKind.CACHE_HIT] > 0
        assert quiet.emitted == loud.emitted == len(delivered[1])
        assert quiet.last_time == loud.last_time > 0.0
        assert bodies[0] == bodies[1]
