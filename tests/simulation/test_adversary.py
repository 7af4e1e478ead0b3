"""Tests for the Adversary 2.0 layer (NXNS amplification, poisoning)."""

import dataclasses
import pickle

import pytest

from repro.core.config import ResilienceConfig
from repro.dns.message import Question
from repro.dns.rrtypes import RRType
from repro.experiments.harness import run_replay
from repro.experiments.parallel import ReplaySpec, run_replays
from repro.experiments.scenarios import Scale, make_scenario
from repro.hierarchy.builder import graft_attacker_zone, ungraft_attacker_zone
from repro.obs import ObservationSpec
from repro.simulation.adversary import (
    AdversarySpec,
    NxnsAttackSpec,
    PoisonAttackSpec,
    Poisoner,
)

from tests.helpers import build_mini_internet, name

MINUTE = 60.0
HOUR = 3600.0


@pytest.fixture
def mini():
    return build_mini_internet()


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"start": -1.0},
        {"duration": 0.0},
        {"queries_per_minute": 0.0},
        {"fan_out": 0},
        {"delegations": 0},
    ])
    def test_bad_nxns_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NxnsAttackSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0},
        {"rate": 1.5},
        {"success": 0.0},
        {"ttl": -10.0},
        {"start": -1.0},
        {"duration": 0.0},
    ])
    def test_bad_poison_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PoisonAttackSpec(**kwargs)

    def test_empty_spec_is_inert(self):
        assert AdversarySpec().inert

    def test_any_family_is_not_inert(self):
        assert not AdversarySpec(nxns=NxnsAttackSpec()).inert
        assert not AdversarySpec(poison=PoisonAttackSpec()).inert


class TestNxnsQueryStream:
    def test_count_and_window(self):
        spec = NxnsAttackSpec(
            start=100.0, duration=600.0, queries_per_minute=12.0,
            fan_out=3, delegations=4,
        )
        stream = spec.query_stream(name("nxns-attacker.alt."))
        assert len(stream) == 120  # 600 s at one query every 5 s
        times = [time for time, _ in stream]
        assert times[0] == 100.0
        assert times == sorted(times)
        assert times[-1] < 100.0 + 600.0

    def test_round_robin_children_and_fresh_labels(self):
        apex = name("nxns-attacker.alt.")
        spec = NxnsAttackSpec(
            start=0.0, duration=60.0, queries_per_minute=60.0,
            fan_out=2, delegations=3,
        )
        stream = spec.query_stream(apex)
        qnames = [qname for _, qname in stream]
        # Every qname is unique (cache busting) and cycles the children.
        assert len(set(qnames)) == len(qnames)
        for index, qname in enumerate(qnames):
            assert qname.parent() == apex.child(f"s{index % 3}")


class TestPoisoner:
    def question(self, text="www.example.test."):
        return Question(name(text), RRType.A)

    def forger(self, **kwargs):
        defaults = {"rate": 1.0, "success": 1.0}
        defaults.update(kwargs)
        return Poisoner(PoisonAttackSpec(**defaults), seed=3)

    def test_certain_race_forges_the_question(self):
        poisoner = self.forger()
        message = poisoner.race("10.0.0.1", self.question(), now=0.0)
        assert message is not None
        assert message.forged
        assert message.authoritative
        (rrset,) = message.answer
        assert rrset.name == name("www.example.test.")
        assert rrset.ttl == poisoner.spec.ttl
        assert {str(r.data) for r in rrset.records} == {poisoner.spec.address}
        assert poisoner.attempts == poisoner.wins == 1

    def test_forgeries_are_memoized_per_question(self):
        poisoner = self.forger()
        first = poisoner.race("10.0.0.1", self.question(), now=0.0)
        second = poisoner.race("10.0.0.2", self.question(), now=1.0)
        assert first is second

    def test_non_a_questions_are_never_raced(self):
        poisoner = self.forger()
        question = Question(name("example.test."), RRType.NS)
        assert poisoner.race("10.0.0.1", question, now=0.0) is None
        assert poisoner.attempts == 0

    def test_window_respected(self):
        poisoner = self.forger(start=100.0, duration=50.0)
        assert poisoner.race("a", self.question(), now=99.0) is None
        assert poisoner.race("a", self.question(), now=100.0) is not None
        assert poisoner.race("a", self.question(), now=150.0) is None

    def test_two_same_seed_poisoners_agree(self):
        spec = PoisonAttackSpec(rate=0.3, success=0.5)
        first = Poisoner(spec, seed=9)
        second = Poisoner(spec, seed=9)
        for ordinal in range(200):
            address = f"10.0.0.{ordinal % 4}"
            a = first.race(address, self.question(), now=float(ordinal))
            b = second.race(address, self.question(), now=float(ordinal))
            assert (a is None) == (b is None)
        assert first.attempts == second.attempts
        assert first.wins == second.wins

    def test_entropy_bits_scale_down_the_win_rate(self):
        spec = PoisonAttackSpec(rate=1.0, success=1.0)
        open_forger = Poisoner(spec, seed=5, entropy_bits=0)
        guarded = Poisoner(spec, seed=5, entropy_bits=4)
        for ordinal in range(2000):
            open_forger.race("a", self.question(), now=float(ordinal))
            guarded.race("a", self.question(), now=float(ordinal))
        assert open_forger.wins == 2000
        # 4 bits leave 1/16 of the races winnable.
        assert 0.02 < guarded.wins / 2000 < 0.12


class TestGraftRoundTrip:
    def test_graft_then_ungraft_restores_the_tree(self, mini):
        tree = mini.tree
        parent = sorted(tree.tld_names())[0]
        before_zones = tree.zone_names()
        before_children = tree.zone(parent).child_zone_names()

        graft = graft_attacker_zone(tree, fan_out=4, delegations=3)
        assert graft.parent == parent
        assert graft.apex == parent.child("nxns-attacker")
        assert graft.apex in tree.zone_names()
        attacker = tree.zone(graft.apex)
        children = attacker.child_zone_names()
        assert len(children) == 3
        for child in attacker.delegations():
            assert len(child.server_names()) == 4

        ungraft_attacker_zone(tree, graft)
        assert tree.zone_names() == before_zones
        assert tree.zone(parent).child_zone_names() == before_children

    def test_graft_validates_arguments(self, mini):
        with pytest.raises(ValueError):
            graft_attacker_zone(mini.tree, fan_out=0, delegations=3)


class TestAdversarialReplay:
    """Replay-level behavior on the shared TINY scenario.

    Attack windows are deliberately short (10 simulated minutes) so the
    whole class stays in test-suite time budget while still driving
    hundreds of adversarial arrivals through the real resolver."""

    def nxns(self, scenario, fan_out, **kwargs):
        defaults = dict(
            start=scenario.attack_start, duration=600.0,
            queries_per_minute=30.0, fan_out=fan_out, delegations=5,
        )
        defaults.update(kwargs)
        return AdversarySpec(nxns=NxnsAttackSpec(**defaults))

    def replay(self, scenario, config, **kwargs):
        return run_replay(
            scenario.built, scenario.trace("TRC1"), config, **kwargs
        )

    def test_amplification_scales_with_fan_out(self, scenario):
        config = ResilienceConfig.vanilla()
        narrow = self.replay(
            scenario, config, adversary=self.nxns(scenario, fan_out=2)
        )
        wide = self.replay(
            scenario, config, adversary=self.nxns(scenario, fan_out=8)
        )
        assert narrow.metrics.attack_stub_queries == 300
        assert wide.metrics.attack_stub_queries == 300
        assert 1.0 < narrow.metrics.amplification_factor
        assert (
            narrow.metrics.amplification_factor
            < wide.metrics.amplification_factor
        )

    def test_fetch_budget_clamps_and_leaves_legit_traffic_alone(
        self, scenario
    ):
        adversary = self.nxns(scenario, fan_out=8)
        baseline = self.replay(scenario, ResilienceConfig.vanilla())
        open_run = self.replay(
            scenario, ResilienceConfig.vanilla(), adversary=adversary
        )
        defended = self.replay(
            scenario,
            ResilienceConfig.vanilla().with_defenses(fetch_budget=2),
            adversary=adversary,
        )
        assert defended.metrics.budget_exhaustions > 0
        assert (
            defended.metrics.amplification_factor
            < open_run.metrics.amplification_factor
        )
        # SR-side accounting stays legitimate-only: the attack stream
        # must not inflate (or degrade) the stub-query census.
        assert open_run.metrics.sr_queries == baseline.metrics.sr_queries
        assert defended.metrics.sr_queries == baseline.metrics.sr_queries

    def test_nxns_cap_clamps_per_referral_fan_out(self, scenario):
        adversary = self.nxns(scenario, fan_out=8)
        open_run = self.replay(
            scenario, ResilienceConfig.vanilla(), adversary=adversary
        )
        capped = self.replay(
            scenario,
            ResilienceConfig.vanilla().with_defenses(nxns_cap=2),
            adversary=adversary,
        )
        assert capped.metrics.nxns_capped > 0
        assert (
            capped.metrics.amplification_factor
            < open_run.metrics.amplification_factor
        )

    def test_inert_spec_is_byte_identical_to_no_adversary(self, scenario):
        config = ResilienceConfig.refresh()
        baseline = self.replay(scenario, config)
        inert = self.replay(scenario, config, adversary=AdversarySpec())
        assert inert.metrics == baseline.metrics

    def test_poisoning_accounting_and_guard(self, scenario):
        adversary = AdversarySpec(
            poison=PoisonAttackSpec(rate=0.2, success=0.5, ttl=HOUR)
        )
        config = ResilienceConfig.vanilla()
        poisoned = self.replay(scenario, config, adversary=adversary)
        metrics = poisoned.metrics
        assert metrics.poison_attempts > 0
        assert metrics.poison_attempts >= metrics.poison_wins > 0
        assert metrics.poison_stored > 0
        assert metrics.poison_stored >= metrics.poison_cured
        assert len(metrics.poison_dwells) > 0
        assert all(dwell >= 0.0 for dwell in metrics.poison_dwells)
        # A forged record can dwell no longer than the TTL it advertised.
        assert max(metrics.poison_dwells) <= HOUR + 1e-6

        guarded_config = dataclasses.replace(
            config, harden_ranking=True, source_entropy_bits=4,
            label="vanilla+guard",
        )
        guarded = self.replay(scenario, guarded_config, adversary=adversary)
        assert guarded.metrics.poison_wins < metrics.poison_wins

    def test_poisoned_replay_passes_validation(self, scenario):
        adversary = AdversarySpec(
            poison=PoisonAttackSpec(rate=0.1, success=0.5)
        )
        result = self.replay(
            scenario, ResilienceConfig.vanilla(), adversary=adversary,
            validation=True,
        )
        assert result.metrics.poison_stored > 0

    def test_draws_are_byte_identical_at_workers_1_vs_4(
        self, scenario, tmp_path
    ):
        adversary = AdversarySpec(
            nxns=NxnsAttackSpec(
                start=scenario.attack_start, duration=600.0,
                queries_per_minute=30.0, fan_out=5, delegations=4,
            ),
            poison=PoisonAttackSpec(rate=0.1, success=0.5),
        )
        configs = (
            ResilienceConfig.vanilla(),
            ResilienceConfig.vanilla().with_defenses(fetch_budget=2),
        )

        def specs(tag):
            return [
                ReplaySpec.for_scenario(
                    scenario, "TRC1", config,
                    adversary=adversary,
                    observe=ObservationSpec(
                        events_path=str(
                            tmp_path / f"{tag}-{config.label}.jsonl"
                        )
                    ),
                )
                for config in configs
            ]

        serial = run_replays(specs("serial"), workers=1)
        fanned = run_replays(specs("fanned"), workers=4)
        assert fanned == serial
        for config in configs:
            serial_log = (tmp_path / f"serial-{config.label}.jsonl")
            fanned_log = (tmp_path / f"fanned-{config.label}.jsonl")
            assert serial_log.read_bytes() == fanned_log.read_bytes()

    def test_summary_carries_the_adversary_columns(self, scenario):
        adversary = self.nxns(scenario, fan_out=4)
        result = self.replay(
            scenario, ResilienceConfig.vanilla(), adversary=adversary
        )
        # The record a worker sends back keeps the adversary counters.
        record = pickle.loads(pickle.dumps(result.metrics))
        assert record == result.metrics
        assert record.attack_stub_queries == 300
        assert record.amplification_factor == result.metrics.amplification_factor
