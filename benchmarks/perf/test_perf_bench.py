"""Tests of the perf ledger itself (``pytest benchmarks/perf``; not tier-1).

They run the real command at ``--smoke`` sizes, so they need the same
``PYTHONPATH=src`` the rest of ``benchmarks/`` does.
"""

from __future__ import annotations

import asyncio
import copy
import json
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.experiments.scenarios import Scale, make_scenario
from repro.serve.server import DnsFrontEnd
from repro.serve.spec import ServeSpec

from . import run as cli
from . import workloads
from .driver import poisson_schedule, run_closed, run_open
from .trace import SpanTracer

ROOT = cli.ROOT
COMMAND = [sys.executable, "-m", "benchmarks.perf.run"]


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    """One ``ledger --smoke`` over all six workloads: (ledger, seconds it took)."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    begin = time.perf_counter()
    done = subprocess.run(
        [*COMMAND, "ledger", "--smoke", "--reps", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    took = time.perf_counter() - begin
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), took, done.stdout


class TestLedger:
    def test_smoke_sizes_are_quick(self, smoke_ledger):
        """Twelve fresh interpreters, six servers: about a minute, not 20 minutes."""
        _, took, _ = smoke_ledger
        assert took < 150.0, f"smoke ledger took {took:.1f}s"

    def test_every_named_metric_and_nothing_unnamed(self, smoke_ledger):
        ledger, _, _ = smoke_ledger
        assert list(ledger["workloads"]) == list(workloads.WORKLOADS)
        end_to_end: set[str] = set()
        per_layer: set[str] = set()
        for entry in ledger["workloads"].values():
            end_to_end |= set(entry["end_to_end"])
            per_layer |= set(entry["per_layer"])
            for name in cli.GATED:
                assert entry["end_to_end"][name]["median"] > 0, name
        assert end_to_end == set(cli.END_TO_END)
        assert per_layer == set(cli.PER_LAYER)

    def test_outputs_are_correct_and_machine_is_fingerprinted(self, smoke_ledger):
        ledger, _, printed = smoke_ledger
        assert {"nproc", "cpu_model", "python", "load_average"} <= set(
            ledger["fingerprint"])
        for name, entry in ledger["workloads"].items():
            assert entry["failed"] == 0 and not entry["problems"], name
            assert entry["end_to_end"]["failed_share"]["median"] == 0.0
            assert "ledger.coverage" in entry["per_layer"] or not name.startswith("replay")
        assert "ledger.coverage" in printed and "p99_ms" in printed

    def test_workloads_contrast(self, smoke_ledger):
        """The hit/miss/renewal split the workloads exist for holds even at smoke size."""
        ledger, _, _ = smoke_ledger
        layers = {name: entry["per_layer"] for name, entry in ledger["workloads"].items()}
        assert (layers["replay_hot"]["cache.hit_ratio"]["value"]
                > layers["replay_cold"]["cache.hit_ratio"]["value"])
        assert layers["replay_renewal_attack"]["renewal.queries_per_sq"]["value"] > 0
        assert layers["replay_hot"]["renewal.queries_per_sq"]["value"] == 0
        assert layers["replay_cold"]["renewal.queries_per_sq"]["value"] == 0


class TestContract:
    def test_benchmark_json_matches_the_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert set(spec) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert spec["command"] == ["python3", "-m", "benchmarks.perf.run"]
        assert spec["paths"] == ["benchmarks/perf"]
        assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
            (w.name, w.why) for w in workloads.WORKLOADS.values() if w.gated]
        assert spec["run_seconds"] == cli.DEFAULT_SECONDS
        assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
                   for w in spec["workloads"])
        assert spec["end_to_end"] == [
            {"name": name, "unit": cli.END_TO_END[name][0],
             "better": cli.END_TO_END[name][1], "bound": cli.END_TO_END[name][2]}
            for name in cli.GATED]
        assert all(0 < metric["bound"] <= 0.25 for metric in spec["end_to_end"])
        assert spec["per_layer"] == [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in cli.PER_LAYER.items()]

    @pytest.mark.parametrize("trace", [0, 1])
    def test_last_line_is_the_result_object(self, trace):
        done = subprocess.run(
            [*COMMAND, "--workload", "replay_cold", "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = cli.PER_LAYER if trace else dict.fromkeys(cli.GATED)
        assert list(result["metrics"]) == list(expected)
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())

    def test_refuses_to_run_without_the_source_tree(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [*COMMAND, "--workload", "replay_hot", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert done.returncode != 0
        assert "correct" not in done.stdout

    def test_golden_mismatch_fails_every_query(self):
        golden = workloads.load_golden()
        golden["replay_cold"] = {**golden["replay_cold"], "sr_cache_hits": -1}
        record = workloads.RunRecord("replay_cold", workloads.WORLD_SEED, 1.0, False)

        class Result:
            """Just enough of a ReplayResult for digest()."""
            window = None

            class metrics:  # noqa: N801
                sr_queries, sr_cache_hits, sr_failures = 10, 4, 0
                cs_demand_queries, cs_renewal_queries, bytes_out = 7, 0, 99

        rep = workloads.Rep(
            np.array([0]), np.array([1]), np.array([1.0]), 0.0, Result())
        workloads.check_replays(
            record, workloads.WORKLOADS["replay_cold"], workloads.WORLD_SEED,
            workloads.FULL, [rep, rep], golden)
        assert not record.correct and record.failed == record.attempted == 20


class TestSpans:
    def test_spans_nest_and_self_time_is_not_negative(self, tmp_path):
        out = str(tmp_path / "spans.npz")
        record = workloads.run_workload(
            "replay_renewal_attack", 3, 1.0, traced=True, sizes=workloads.SMOKE,
            spans_out=out)
        assert record.correct
        assert record.per_layer["ledger.coverage"]["value"] > 0
        assert record.per_layer["trace.overhead_ratio"]["value"] > 1.0
        log = np.load(out)
        parent, start, end = log["parent"], log["start"], log["end"]
        inner = parent >= 0
        assert inner.any() and (~inner).any()
        assert (start[parent[inner]] <= start[inner]).all()
        assert (end[inner] <= end[parent[inner]]).all()
        layers = list(log["layers"])
        assert {"resolver", "cache.get", "network.query", "renewal.timer"} <= set(layers)
        # Everything below a stub query carries its id; timer bodies carry none.
        resolver = log["layer"] == layers.index("resolver")
        assert sorted(log["query"][resolver]) == list(range(int(resolver.sum())))
        assert (log["query"][log["layer"] == layers.index("renewal.timer")] == -1).all()

    def test_self_time_subtracts_children_once(self):
        tracer = SpanTracer()

        def leaf() -> None:
            time.sleep(0.002)

        traced_leaf = tracer.span(leaf, "leaf")

        def trunk() -> None:
            traced_leaf()
            traced_leaf()

        tracer.span(trunk, "trunk", opens_query=True)()
        spans = tracer.spans()
        assert list(spans.parent) == [2, 2, -1]
        assert list(spans.query) == [0, 0, 0]
        raw_self, children = tracer.self_times(spans)
        assert list(children) == [0, 0, 2]
        assert (raw_self >= 0).all()
        assert raw_self[2] < 0.002 * 1e9 < raw_self[0]

    def test_uninstall_restores_the_patched_callables(self):
        from repro.core.cache import DnsCache

        original = DnsCache.get
        tracer = SpanTracer()
        workloads.install_replay_layers(tracer)
        assert DnsCache.get is not original
        tracer.uninstall()
        assert DnsCache.get is original


@contextmanager
def tiny_front_end():
    """An in-process ``DnsFrontEnd`` over the TINY tree, on its own loop thread."""
    front_end = DnsFrontEnd(ServeSpec(
        host="127.0.0.1", port=0, metrics_port=-1, scale=Scale.TINY, seed=7))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(front_end.start(), loop).result(60)
        try:
            yield front_end
        finally:
            asyncio.run_coroutine_threadsafe(front_end.stop(), loop).result(60)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive()
        loop.close()


class TestDriver:
    def test_open_loop_at_200_qps_loses_nothing(self):
        built = make_scenario(Scale.TINY, seed=7).built
        with tiny_front_end() as front_end:
            names = list(front_end.sample_names(40))
            reference = workloads.reference_answers(built, names)
            packets, _ = workloads.encode_all(names)
            load = run_open(front_end.udp_address, packets, 200.0, 2.0, seed=5)
        assert load.sent == len(poisson_schedule(200.0, 2.0, 5)) > 300
        assert load.timeouts == 0 and len(load.replies) == load.sent
        assert workloads.wrong_answers(load, names, reference)[0] == 0
        assert len(load.late_s) == load.sent and min(load.late_s) >= 0.0
        # Latency runs from the due time, so it can never undercut the lateness.
        assert min(load.latency_s) > 0.0

    def test_closed_loop_answers_match_the_reference(self):
        built = make_scenario(Scale.TINY, seed=7).built
        with tiny_front_end() as front_end:
            names = list(front_end.sample_names(40))
            reference = workloads.reference_answers(built, names)
            packets, _ = workloads.encode_all(names)
            once = run_closed(front_end.udp_address, packets, clients=2)
            timed = run_closed(front_end.udp_address, packets, clients=2, seconds=0.5)
        assert once.sent == len(once.replies) == len(names) and once.timeouts == 0
        assert sorted(index for index, _ in once.replies) == list(range(len(names)))
        assert workloads.wrong_answers(once, names, reference)[0] == 0
        assert timed.sent == len(timed.replies) > len(names)
        assert 0.5 <= timed.wall_s < 1.5

    def test_wrong_answer_is_counted(self):
        built = make_scenario(Scale.TINY, seed=7).built
        with tiny_front_end() as front_end:
            names = list(front_end.sample_names(2))
            reference = workloads.reference_answers(built, names)
            packets, _ = workloads.encode_all(names)
            load = run_closed(front_end.udp_address, packets, clients=1)
        swapped = {names[0]: reference[names[1]], names[1]: reference[names[0]]}
        assert workloads.wrong_answers(load, names, swapped)[0] == 2

    def test_unanswered_queries_time_out(self):
        import socket

        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:
            sink.bind(("127.0.0.1", 0))
            packets = [b"\x00\x01" + b"\x00" * 10, b"\x00\x02" + b"\x00" * 10]
            closed = run_closed(sink.getsockname(), packets, clients=1, timeout=0.2)
            opened = run_open(sink.getsockname(), packets, 100.0, 0.1, seed=1, timeout=0.2)
        assert closed.sent == closed.timeouts == 2 and not closed.replies
        assert opened.sent == opened.timeouts > 0 and not opened.replies


class TestCompare:
    @staticmethod
    def ledger(**overrides):
        values = {"qps": [1000.0, 1010.0, 990.0, 1005.0, 995.0],
                  "p50_ms": [1.0, 1.01, 0.99, 1.0, 1.02],
                  "sim_cs_per_sr": [2.5, 2.6, 2.4, 2.5, 2.5]}
        values.update(overrides)
        rows = {}
        for name, series in values.items():
            unit, better, bound = cli.END_TO_END[name]
            rows[name] = {"unit": unit, "better": better, "bound": bound,
                          "values": series, "median": sorted(series)[len(series) // 2]}
        return {"workloads": {"replay_hot": {"end_to_end": rows}}}

    def compare(self, tmp_path, base, change, capsys):
        (tmp_path / "a.json").write_text(json.dumps(base))
        (tmp_path / "b.json").write_text(json.dumps(change))
        status = cli.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        return status, capsys.readouterr().out

    def test_a_file_against_itself_passes(self, tmp_path, capsys):
        status, out = self.compare(tmp_path, self.ledger(), self.ledger(), capsys)
        assert status == 0 and "worse" not in out and "unresolved" not in out

    @pytest.mark.parametrize("past_bound, verdict", [(0.05, "worse"), (-0.05, "ok")])
    def test_a_qps_drop_is_held_against_the_bound(
            self, tmp_path, capsys, past_bound, verdict):
        # The issue's doctored 20 % drop, moved with the bound: at the 25 % this
        # box needs, 20 % is inside it, so the drop is the bound +/- 5 points.
        keep = 1.0 - (cli.END_TO_END["qps"][2] + past_bound)
        base = self.ledger()
        slow = copy.deepcopy(base)
        row = slow["workloads"]["replay_hot"]["end_to_end"]["qps"]
        row["values"] = [value * keep for value in row["values"]]
        row["median"] *= keep
        status, out = self.compare(tmp_path, base, slow, capsys)
        assert status == (verdict == "worse")
        assert [line.split()[-1] for line in out.splitlines() if " qps " in line] == [verdict]

    def test_a_spread_wider_than_the_bound_is_unresolved(self, tmp_path, capsys):
        noisy = self.ledger(qps=[700.0, 1300.0, 1000.0, 850.0, 1150.0])
        status, out = self.compare(tmp_path, self.ledger(), noisy, capsys)
        assert status == 0 and "unresolved" in out

    def test_an_exact_metric_may_not_move(self, tmp_path, capsys):
        moved = self.ledger(sim_cs_per_sr=[2.5, 2.6, 2.4, 2.5, 2.51])
        status, out = self.compare(tmp_path, self.ledger(), moved, capsys)
        assert status == 1 and "worse" in out


def test_ruff_clean_under_the_repo_config():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed here")
    done = subprocess.run(
        [ruff, "check", "benchmarks/perf"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout
