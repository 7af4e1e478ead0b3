"""Tests for the caching server's DNSSEC validation mode (§6 extension)."""

from repro.core.caching_server import ResolutionOutcome
from repro.core.config import ResilienceConfig
from repro.dns.rrtypes import RRType
from repro.simulation.attack import attack_on_root_and_tlds

from tests.conftest import make_stack
from tests.helpers import HOUR, name


class TestValidationHappyPath:
    def test_signed_lookup_validates(self, signed_mini):
        config = ResilienceConfig.refresh().with_validation()
        server, *_ = make_stack(signed_mini, config)
        result = server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        assert result.outcome is ResolutionOutcome.ANSWERED

    def test_keys_cached_alongside_answers(self, signed_mini):
        config = ResilienceConfig.refresh().with_validation()
        server, *_ = make_stack(signed_mini, config)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        assert server.cache.get(name("example.test."), RRType.DNSKEY, 0.0)
        assert server.cache.get(name("test."), RRType.DNSKEY, 0.0)

    def test_unsigned_namespace_unaffected(self, signed_mini):
        config = ResilienceConfig.vanilla().with_validation()
        server, *_ = make_stack(signed_mini, config)
        # provider.test. is unsigned; only test. (signed) is on its chain.
        result = server.handle_stub_query(name("www.provider.test."), RRType.A, 0.0)
        assert not result.failed

    def test_dnskey_query_answerable(self, signed_mini):
        server, *_ = make_stack(signed_mini, ResilienceConfig.vanilla())
        result = server.handle_stub_query(name("example.test."), RRType.DNSKEY, 0.0)
        assert result.outcome is ResolutionOutcome.ANSWERED
        assert result.answer.rrtype is RRType.DNSKEY


class TestValidationUnderAttack:
    def _steady_www(self, server, until_hours=49.0):
        """Query www every 30 min so the SLD IRRs stay refreshed.

        The test. DNSKEY (2-day TTL, learned at t=0) dies at 48 h, right
        as the attack starts — so it can never be refetched.
        """
        for step in range(int(until_hours * 2)):
            server.handle_stub_query(
                name("www.example.test."), RRType.A, step * 0.5 * HOUR
            )

    def test_expired_tld_key_breaks_validation_during_attack(self, signed_mini):
        attacks = attack_on_root_and_tlds(
            signed_mini.tree, start=48 * HOUR, duration=6 * HOUR
        )
        config = ResilienceConfig.refresh().with_validation()
        server, *_ = make_stack(signed_mini, config, attacks=attacks)
        self._steady_www(server)
        during = server.handle_stub_query(
            name("mail.example.test."), RRType.A, 49 * HOUR
        )
        assert during.outcome is ResolutionOutcome.VALIDATION_FAILURE

    def test_without_validation_same_scenario_succeeds(self, signed_mini):
        attacks = attack_on_root_and_tlds(
            signed_mini.tree, start=48 * HOUR, duration=6 * HOUR
        )
        server, *_ = make_stack(signed_mini, ResilienceConfig.refresh(),
                                attacks=attacks)
        self._steady_www(server)
        during = server.handle_stub_query(
            name("mail.example.test."), RRType.A, 49 * HOUR
        )
        assert during.outcome is ResolutionOutcome.ANSWERED

    def test_validation_failures_counted(self, signed_mini):
        attacks = attack_on_root_and_tlds(
            signed_mini.tree, start=48 * HOUR, duration=6 * HOUR
        )
        config = ResilienceConfig.refresh().with_validation()
        server, engine, network, metrics = make_stack(
            signed_mini, config, attacks=attacks
        )
        self._steady_www(server)
        server.handle_stub_query(name("mail.example.test."), RRType.A, 49 * HOUR)
        assert metrics.sr_validation_failures >= 1
        assert metrics.sr_failures >= metrics.sr_validation_failures

    def test_missing_key_refetched_when_zone_reachable(self, signed_mini):
        # No attack: even if the TLD key expired, validation refetches it.
        config = ResilienceConfig.vanilla().with_validation()
        server, *_ = make_stack(signed_mini, config)
        server.handle_stub_query(name("www.example.test."), RRType.A, 0.0)
        # 72 h later everything expired; the lookup revalidates from scratch.
        result = server.handle_stub_query(
            name("mail.example.test."), RRType.A, 72 * HOUR
        )
        assert result.outcome is ResolutionOutcome.ANSWERED


class TestConfigSurface:
    def test_with_validation_labels(self):
        config = ResilienceConfig.combination().with_validation()
        assert config.dnssec_validation
        assert config.label.endswith("+dnssec")

    def test_outcome_failed_property(self):
        assert ResolutionOutcome.VALIDATION_FAILURE.failed
        assert not ResolutionOutcome.ANSWERED.failed
