"""Event bus semantics: ordering, sequence numbers, the per-kind tally."""

from repro.obs import Event, EventBus, EventKind


class TestEvent:
    def test_data_lookup(self):
        event = Event(seq=0, time=1.0, kind=EventKind.CACHE_HIT,
                      data=(("name", "a.com."), ("remaining", 3.5)))
        assert event.get("name") == "a.com."
        assert event.get("remaining") == 3.5
        assert event.get("absent") is None

    def test_to_json_is_canonical(self):
        event = Event(seq=7, time=2.5, kind=EventKind.STUB_QUERY,
                      data=(("name", "x."), ("rrtype", "A")))
        assert event.to_json() == (
            '{"kind":"stub.query","name":"x.","rrtype":"A","seq":7,"t":2.5}'
        )


class TestEventBus:
    def test_emit_without_subscribers_returns_none_but_counts(self):
        bus = EventBus()
        assert bus.emit(EventKind.CACHE_HIT, 1.0) is None
        assert bus.emit(EventKind.CACHE_MISS, 2.0) is None
        assert bus.emit(EventKind.CACHE_HIT, 1.5) is None
        assert bus.emitted == 3
        assert bus.counts() == {EventKind.CACHE_HIT: 2, EventKind.CACHE_MISS: 1}
        assert bus.last_time == 2.0

    def test_seq_keeps_counting_across_subscriber_changes(self):
        bus = EventBus()
        bus.emit(EventKind.CACHE_HIT, 1.0)  # unobserved, still seq 0
        seen: list[Event] = []
        bus.subscribe(seen.append)
        event = bus.emit(EventKind.CACHE_MISS, 2.0)
        assert event is not None and event.seq == 1

    def test_delivery_preserves_emission_order(self):
        bus = EventBus()
        seen: list[Event] = []
        bus.subscribe(seen.append)
        for index in range(10):
            kind = EventKind.CACHE_HIT if index % 2 else EventKind.CACHE_MISS
            bus.emit(kind, float(index))
        assert [event.seq for event in seen] == list(range(10))
        assert [event.time for event in seen] == [float(i) for i in range(10)]

    def test_data_is_key_sorted(self):
        bus = EventBus()
        seen: list[Event] = []
        bus.subscribe(seen.append)
        bus.emit(EventKind.QUERY_ISSUED, 1.0, zone="z.", qname="a.z.",
                 renewal=False)
        assert seen[0].data == (
            ("qname", "a.z."), ("renewal", False), ("zone", "z."),
        )
