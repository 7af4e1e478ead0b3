"""Validate the analytical IRR-availability model against the simulator.

For each scheme: replay a trace with no attack, measure each zone's
demand contact rate (``ReplayMetrics.zone_contacts``), feed those
rates into the closed-form model of :mod:`repro.analysis.model`, and
compare the predicted number of zones with live IRRs at the attack
instant (start of day 7) against the simulator's actual count.

The model is a steady-state Poisson approximation, so agreement within
tens of percent — and correct *ordering* across schemes — is the success
criterion, not exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.model import SchemeModel, predict_cached_zone_count
from repro.core.config import ResilienceConfig
from repro.dns.name import Name
from repro.experiments.parallel import ReplaySpec, run_rows
from repro.experiments.scenarios import Scenario
from repro.experiments.table import ResultTable

DAY = 86400.0


@dataclass
class ModelValidationRow:
    scheme: str
    predicted: float
    measured: int

    @property
    def relative_error(self) -> float:
        if self.measured == 0:
            return float("inf") if self.predicted > 0 else 0.0
        return abs(self.predicted - self.measured) / self.measured


_SCHEMES: tuple[tuple[ResilienceConfig, SchemeModel], ...] = (
    (ResilienceConfig.vanilla(), SchemeModel("vanilla", "vanilla")),
    (ResilienceConfig.refresh(), SchemeModel("refresh", "refresh")),
    (
        ResilienceConfig.refresh_renew("lru", 3),
        SchemeModel("refresh+lru3", "renewal", credit=3),
    ),
    (
        ResilienceConfig.refresh_long_ttl(3),
        SchemeModel("refresh+ttl3d", "refresh", ttl_override=3 * DAY),
    ),
)


def model_validation(
    scenario: Scenario,
    trace_name: str = "TRC1",
    instant: float | None = None,
    seed: int = 0,
) -> ResultTable:
    """Model-vs-simulation comparison at ``instant`` (default day 6)."""
    duration = scenario.trace(trace_name).duration
    probe_time = 6 * DAY if instant is None else instant
    irr_ttls: dict[Name, float] = {
        zone.name: zone.infrastructure_records.ns.ttl
        for zone in scenario.built.tree.zones()
    }
    # Sample cache occupancy during the replay so the measurement is a
    # true snapshot at the probe instant (the end-state cache would leak
    # post-probe refreshes into the count).
    records = run_rows(
        (model.name, ReplaySpec.for_scenario(
            scenario, trace_name, config, seed=seed,
            memory_sample_interval=probe_time / 8,
        ))
        for config, model in _SCHEMES
    )
    rows: dict[str, ModelValidationRow] = {}
    for config, model in _SCHEMES:
        metrics = records[model.name]
        # Rates over the whole trace (the process is ~stationary, so the
        # full-window average is the cleanest λ estimate).
        contact_rates = {
            zone: count / duration
            for zone, count in metrics.zone_contacts.items()
            if not zone.is_root
        }
        # Long-TTL runs override TTLs at the authority; mirror it here.
        ttls = irr_ttls
        if config.long_ttl is not None:
            ttls = {zone: config.long_ttl for zone in irr_ttls}
        predicted = predict_cached_zone_count(model, contact_rates, ttls)
        probe_sample = min(
            metrics.memory_samples,
            key=lambda sample: abs(sample.time - probe_time),
        )
        rows[model.name] = ModelValidationRow(
            scheme=model.name,
            predicted=predicted,
            measured=probe_sample.zones_cached,
        )
    return ResultTable(
        "Analytical model vs simulation — zones with live IRRs at the "
        "attack instant (day 7)",
        ("Scheme",),
        (("Model: E[zones cached]", lambda row: f"{row.predicted:.1f}"),
         ("Simulated", lambda row: row.measured),
         ("Rel. error", lambda row: f"{row.relative_error * 100:.0f} %")),
        rows,
    )
