"""Experiment harness: scenarios, replays, and one module per artifact.

* :mod:`repro.experiments.scenarios` -- scale presets and the standard
  setup (hierarchy + TRC1..TRC6 traces) shared by every experiment.
* :mod:`repro.experiments.harness` -- trace replay with optional attack,
  gap tracking, memory sampling and observability hooks.
* :mod:`repro.experiments.parallel` -- the batch runner every
  experiment goes through: ``(row key, ReplaySpec)`` pairs in, rows of
  :class:`~repro.simulation.metrics.ReplayMetrics` out.
* :mod:`repro.experiments.table` -- :class:`~repro.experiments.table.
  ResultTable`, the one result shape: declared columns, text rendering
  and the row/cell/column-mean lookups.
* :mod:`repro.experiments.figures` -- Tables 1-2 and Figures 3-12;
  :mod:`~repro.experiments.attack_grid` holds the Figures 4-11 grids.
* :mod:`repro.experiments.ablations`, :mod:`~repro.experiments.fleet`
  (independent per-organisation replays summed for §6's damage count),
  :mod:`~repro.experiments.model_validation` and the registry modules
  below -- the extension experiments (DESIGN.md §7).

The ``EXPERIMENTS`` table is the registry of extension experiments: one
:class:`~repro.experiments.registry.CommandDef` per experiment, each
pairing a frozen spec dataclass with its ``run(spec)`` function.  The
CLI generates its subcommands from this table; programmatic callers use
``EXPERIMENTS["churn"].run(ChurnSpec(...))``.
"""

from repro.experiments import (
    amplification as _amplification,
    attack_grid as _attack_grid,
    churn as _churn,
    degradation as _degradation,
    dnssec as _dnssec,
    latency as _latency,
    max_damage as _max_damage,
    multiseed as _multiseed,
    poisoning as _poisoning,
)
from repro.experiments.registry import CommandDef

EXPERIMENTS: dict[str, CommandDef] = {
    definition.name: definition
    for definition in (
        CommandDef(
            name="churn",
            help="IRR-churn cost experiment (long-TTL inconsistency)",
            spec_type=_churn.ChurnSpec,
            runner=_churn.run,
        ),
        CommandDef(
            name="latency",
            help="response-time experiment (no attack)",
            spec_type=_latency.LatencySpec,
            runner=_latency.run,
        ),
        CommandDef(
            name="dnssec",
            help="DNSSEC amplification experiment (paper §6)",
            spec_type=_dnssec.DnssecSpec,
            runner=_dnssec.run,
        ),
        CommandDef(
            name="maxdamage",
            help="maximum-damage exploration",
            spec_type=_max_damage.MaxDamageSpec,
            runner=_max_damage.run,
        ),
        CommandDef(
            name="attack-grid",
            help="failure grid of one scheme over attack durations",
            spec_type=_attack_grid.AttackGridSpec,
            runner=_attack_grid.run,
        ),
        CommandDef(
            name="renewal2",
            help="swr/decoupled vs credit renewal at equal upstream budget",
            spec_type=_attack_grid.Renewal2Spec,
            runner=_attack_grid.run_renewal2,
        ),
        CommandDef(
            name="multiseed",
            help="multi-seed replication of the headline failure rates",
            spec_type=_multiseed.MultiSeedSpec,
            runner=_multiseed.run,
        ),
        CommandDef(
            name="degradation",
            help="attack intensity × retry policy degradation sweep",
            spec_type=_degradation.DegradationSpec,
            runner=_degradation.run,
        ),
        CommandDef(
            name="amplification",
            help="NXNS amplification sweep: fan-out × fetch budget",
            spec_type=_amplification.AmplificationSpec,
            runner=_amplification.run,
        ),
        CommandDef(
            name="poisoning",
            help="cache-poisoning sweep: injection rate × scheme (+guard)",
            spec_type=_poisoning.PoisoningSpec,
            runner=_poisoning.run,
        ),
    )
}

__all__ = ["EXPERIMENTS", "CommandDef"]
