"""Tests for ResilienceConfig factories."""

import pytest

from repro.core.caching_server import MAX_EFFECTIVE_TTL
from repro.core.config import DAY, ResilienceConfig
from repro.core.policies import AdaptiveLFUPolicy, LRUPolicy

from tests.conftest import make_stack
from tests.helpers import build_mini_internet


class TestFactories:
    def test_vanilla(self):
        config = ResilienceConfig.vanilla()
        assert not config.ttl_refresh
        assert config.renewal_policy is None
        assert config.long_ttl is None
        assert config.describe() == "vanilla"

    def test_refresh(self):
        config = ResilienceConfig.refresh()
        assert config.ttl_refresh
        assert "ttl-refresh" in config.describe()

    def test_refresh_renew_builds_policy(self):
        config = ResilienceConfig.refresh_renew("lru", 3)
        policy = config.make_renewal_policy()
        assert isinstance(policy, LRUPolicy)
        assert policy.credit == 3

    def test_refresh_renew_rejects_bad_policy_eagerly(self):
        with pytest.raises(ValueError):
            ResilienceConfig.refresh_renew("nope", 3)

    def test_each_make_returns_fresh_policy(self):
        config = ResilienceConfig.refresh_renew("lfu", 3)
        assert config.make_renewal_policy() is not config.make_renewal_policy()

    def test_long_ttl_days_converted(self):
        config = ResilienceConfig.refresh_long_ttl(3)
        assert config.long_ttl == 3 * DAY

    def test_combination_defaults_match_paper(self):
        config = ResilienceConfig.combination()
        assert config.ttl_refresh
        assert config.long_ttl == 3 * DAY
        assert isinstance(config.make_renewal_policy(), AdaptiveLFUPolicy)

    def test_stale_serving(self):
        config = ResilienceConfig.stale_serving()
        assert config.serve_stale
        assert not config.ttl_refresh

    def test_with_label(self):
        config = ResilienceConfig.vanilla().with_label("x")
        assert config.label == "x"
        assert not config.ttl_refresh

    def test_describe_combination(self):
        text = ResilienceConfig.combination().describe()
        assert "ttl-refresh" in text
        assert "renewal" in text
        assert "long-ttl" in text

    def test_default_max_effective_ttl_is_seven_days(self):
        assert MAX_EFFECTIVE_TTL == 7 * DAY
        server, *_ = make_stack(build_mini_internet(),
                                ResilienceConfig.vanilla())
        assert server.cache.max_effective_ttl == 7 * DAY
