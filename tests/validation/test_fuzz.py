"""The fuzzer itself: green on the fixed build, deterministic per seed."""

from repro.validation.fuzz import FuzzReport, run_corpus, run_fuzz


class TestFuzzRuns:
    def test_small_run_is_green(self):
        report = run_fuzz(rounds=10, seed=3, ops_per_round=80)
        assert report == FuzzReport(rounds=10, ops=800, seed=3)

    def test_same_seed_same_coverage(self):
        first = run_fuzz(rounds=5, seed=11, ops_per_round=60)
        second = run_fuzz(rounds=5, seed=11, ops_per_round=60)
        assert first == second

    def test_corpus_is_green(self):
        # 5 original cases + the PR-10 stale-boundary/invalidation pair
        # + the negative-verdict case.
        assert run_corpus() == 8
