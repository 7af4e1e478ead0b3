"""Metric sinks: binning, JSONL goldens, Prometheus rendering."""

import io

import pytest

from repro.obs import (
    EventBus,
    EventKind,
    JsonlSink,
    MetricSink,
    PrometheusSink,
    TimeSeriesSink,
)


class TestTimeSeriesSink:
    def test_bin_width_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesSink(0.0)

    def test_counts_fall_into_fixed_width_bins(self):
        bus = EventBus()
        sink = TimeSeriesSink(bin_width=10.0).attach(bus)
        for time in (0.0, 1.0, 9.999, 10.0, 25.0):
            bus.emit(EventKind.CACHE_HIT, time)
        bus.emit(EventKind.CACHE_MISS, 25.0)
        assert sink.series(EventKind.CACHE_HIT) == [
            (0.0, 3), (10.0, 1), (20.0, 1),
        ]
        assert sink.series(EventKind.CACHE_MISS) == [(20.0, 1)]
        assert sink.series(EventKind.STUB_QUERY) == []
        assert sink.total(EventKind.CACHE_HIT) == 5
        assert sink.kinds() == (EventKind.CACHE_HIT, EventKind.CACHE_MISS)
        assert sink.as_dict() == {
            "cache.hit": [(0.0, 3), (10.0, 1), (20.0, 1)],
            "cache.miss": [(20.0, 1)],
        }


class TestJsonlSink:
    def test_requires_exactly_one_destination(self):
        with pytest.raises(ValueError):
            JsonlSink()
        with pytest.raises(ValueError):
            JsonlSink(path="x.jsonl", stream=io.StringIO())

    def test_golden_stream(self):
        bus = EventBus()
        stream = io.StringIO()
        sink = JsonlSink(stream=stream).attach(bus)
        bus.emit(EventKind.STUB_QUERY, 1.5, name="a.com.", rrtype="A")
        bus.emit(EventKind.CACHE_MISS, 1.5, name="a.com.", rrtype="A")
        sink.close()
        assert stream.getvalue() == (
            '{"kind":"stub.query","name":"a.com.","rrtype":"A","seq":0,"t":1.5}\n'
            '{"kind":"cache.miss","name":"a.com.","rrtype":"A","seq":1,"t":1.5}\n'
        )
        assert sink.lines_written == 2

    def test_path_backed_sink_writes_empty_file_without_events(self, tmp_path):
        target = tmp_path / "events.jsonl"
        sink = JsonlSink(path=target)
        sink.close()
        assert target.read_text(encoding="utf-8") == ""


class TestPrometheusSink:
    def test_golden_render(self):
        bus = EventBus()
        sink = PrometheusSink().attach(bus)
        bus.emit(EventKind.STUB_QUERY, 1.0)
        bus.emit(EventKind.CACHE_HIT, 2.0)
        bus.emit(EventKind.CACHE_HIT, 3.5)
        assert sink.render() == (
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

    def test_a_bus_with_only_the_scrape_attached_builds_no_event(self):
        """The bus counts, the sink renders: nothing subscribes, so
        ``emit`` returns before constructing an Event."""
        bus = EventBus()
        sink = PrometheusSink().attach(bus)
        assert bus.emit(EventKind.CACHE_HIT, 2.0, name="a.com.") is None
        assert 'repro_events_total{kind="cache.hit"} 1' in sink.render()
        assert "repro_last_event_seconds 2.0" in sink.render()

    def test_jsonl_beside_the_scrape_still_gets_every_event(self):
        """A JSONL log written with a Prometheus sink attached is
        byte-identical to one written without."""
        logs = []
        for with_scrape in (False, True):
            bus = EventBus()
            stream = io.StringIO()
            JsonlSink(stream=stream).attach(bus)
            if with_scrape:
                sink = PrometheusSink().attach(bus)
            event = bus.emit(EventKind.STUB_QUERY, 1.5, name="a.com.")
            assert event is not None and event.kind is EventKind.STUB_QUERY
            bus.emit(EventKind.CACHE_MISS, 1.5, name="a.com.")
            logs.append(stream.getvalue())
        assert logs[0] == logs[1] != ""
        assert "repro_events_seen_total 2" in sink.render()

    def test_write(self, tmp_path):
        sink = PrometheusSink()
        target = tmp_path / "metrics.prom"
        sink.write(target)
        assert "repro_events_seen_total 0" in target.read_text(encoding="utf-8")


def test_all_sinks_satisfy_the_protocol():
    sinks = (
        TimeSeriesSink(1.0),
        JsonlSink(stream=io.StringIO()),
        PrometheusSink(),
    )
    for sink in sinks:
        assert isinstance(sink, MetricSink)


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
            sink = PrometheusSink().attach(bus)
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
            bodies.append(sink.render())
            delivered.append(seen)
        quiet, loud = buses
        assert quiet.quiet and not loud.quiet
        assert quiet.counts() == loud.counts()
        assert quiet.counts()[EventKind.CACHE_HIT] > 0
        assert quiet.emitted == loud.emitted == len(delivered[1])
        assert quiet.last_time == loud.last_time > 0.0
        assert bodies[0] == bodies[1]
