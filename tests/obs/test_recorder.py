"""The event ring: built only when a spec asks, beside the bus's tally."""

from repro.obs import EventKind, ObservationSpec


def test_ring_evicts_oldest_but_counters_keep_totals():
    context = ObservationSpec(ring_size=4).build()
    bus = context.bus
    for index in range(10):
        bus.emit(EventKind.CACHE_HIT, float(index))
    assert context.ring is not None
    assert [event.time for event in context.ring] == [6.0, 7.0, 8.0, 9.0]
    assert bus.emitted == 10
    assert bus.counts() == {EventKind.CACHE_HIT: 10}


def test_no_ring_by_default_so_a_metrics_spec_leaves_the_bus_quiet(tmp_path):
    context = ObservationSpec(metrics_path=str(tmp_path / "m.prom")).build()
    assert context.ring is None and context.jsonl is None
    assert context.bus.emit(EventKind.CACHE_HIT, 1.0) is None
    assert context.bus.quiet
    context.finish()
    assert "repro_events_seen_total 1" in (tmp_path / "m.prom").read_text()
