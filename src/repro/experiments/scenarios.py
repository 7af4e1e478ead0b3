"""Standard experiment scenarios: one hierarchy, six traces, four scales.

Every experiment draws from one :class:`Scenario`: a synthetic hierarchy
plus traces TRC1–TRC5 (7 days, five "organisations") and TRC6 (one
month), mirroring the paper's Table 1 layout.  The scenario is built
deterministically from (scale, seed) and memoised per process, so the
whole bench suite shares one construction.

Scales (see DESIGN.md §6): failure *percentages*, CDF shapes and overhead
*ratios* are scale-stable, so laptop scales reproduce the paper's shapes.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from functools import lru_cache

from repro.hierarchy.builder import BuiltHierarchy, HierarchyConfig, build_hierarchy
from repro.workload.generator import TraceGenerator, WorkloadConfig
from repro.workload.trace import Trace

DAY = 86400.0

#: Environment variable overriding the default bench scale.
SCALE_ENV_VAR = "REPRO_SCALE"


class Scale(enum.Enum):
    """How big an experiment to run."""

    TINY = "tiny"
    """Unit-test scale: seconds end-to-end."""

    SMALL = "small"
    """Default bench scale: the full suite in minutes."""

    MEDIUM = "medium"
    """Closer to the paper's trace sizes; tens of minutes."""

    PAPER = "paper"
    """Table-1-sized traces (millions of queries).  Set-up measured on a
    2-core Xeon: the hierarchy (52,238 zones, 389,567 hosts) builds in
    4.0 s to a 545 MB peak and one week trace (6,301,445 queries)
    generates in 0.8–0.9 s into 95 MB of columns; the hierarchy plus five
    week traces peak at 1.15 GB RSS in one process.  One replay (seed 7,
    TRC1 under a 6 h root+TLD attack from day 7) took 119 s and peaked at
    1,590 MB under vanilla, and 220 s and 1,709 MB under refresh + A-LFU
    with credit 3."""

    @classmethod
    def from_env(cls, default: "Scale | None" = None) -> "Scale":
        """The scale named by $REPRO_SCALE, else ``default`` (SMALL)."""
        fallback = default or cls.SMALL
        raw = os.environ.get(SCALE_ENV_VAR)
        if not raw:
            return fallback
        try:
            return cls(raw.lower())
        except ValueError:
            valid = ", ".join(scale.value for scale in cls)
            raise ValueError(
                f"{SCALE_ENV_VAR}={raw!r} is not one of: {valid}"
            ) from None


@dataclass(frozen=True)
class ScenarioParameters:
    """Concrete sizes for one scale."""

    hierarchy: HierarchyConfig
    workload: WorkloadConfig
    month_workload: WorkloadConfig
    week_trace_count: int = 5


def _parameters_for(scale: Scale) -> ScenarioParameters:
    if scale is Scale.TINY:
        hierarchy = HierarchyConfig(
            num_tlds=8, num_slds=120, num_providers=3,
            root_server_count=5, tld_server_range=(2, 3),
            hosts_per_zone_range=(2, 5),
        )
        week = WorkloadConfig(
            duration_days=7.0, queries_per_day=1_500, num_clients=40,
            private_zones_per_client=8,
        )
        month = WorkloadConfig(
            duration_days=31.0, queries_per_day=900, num_clients=40,
            private_zones_per_client=8,
        )
    elif scale is Scale.SMALL:
        hierarchy = HierarchyConfig(num_tlds=40, num_slds=1_000, num_providers=8)
        week = WorkloadConfig(
            duration_days=7.0, queries_per_day=9_000, num_clients=250,
        )
        month = WorkloadConfig(
            duration_days=31.0, queries_per_day=6_000, num_clients=250,
        )
    elif scale is Scale.MEDIUM:
        hierarchy = HierarchyConfig(num_tlds=120, num_slds=8_000, num_providers=20)
        week = WorkloadConfig(
            duration_days=7.0, queries_per_day=80_000, num_clients=1_500,
            private_zones_per_client=25,
        )
        month = WorkloadConfig(
            duration_days=31.0, queries_per_day=50_000, num_clients=1_500,
            private_zones_per_client=25,
        )
    elif scale is Scale.PAPER:
        hierarchy = HierarchyConfig(num_tlds=260, num_slds=40_000, num_providers=60)
        week = WorkloadConfig(
            duration_days=7.0, queries_per_day=900_000, num_clients=8_000,
            private_zones_per_client=40,
        )
        month = WorkloadConfig(
            duration_days=31.0, queries_per_day=400_000, num_clients=8_000,
            private_zones_per_client=40,
        )
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unknown scale {scale}")
    return ScenarioParameters(hierarchy=hierarchy, workload=week, month_workload=month)


@dataclass(frozen=True)
class Scenario:
    """A built hierarchy plus its trace set."""

    scale: Scale
    seed: int
    built: BuiltHierarchy
    parameters: ScenarioParameters
    # Fill-only trace memo: the fields a trace derives from are frozen.
    _traces: dict[str, Trace] = field(default_factory=dict, repr=False)

    WEEK_TRACES = ("TRC1", "TRC2", "TRC3", "TRC4", "TRC5")
    MONTH_TRACE = "TRC6"

    def trace(self, name: str) -> Trace:
        """TRC1..TRC5 (7-day) or TRC6 (1-month), generated on first use."""
        cached = self._traces.get(name)
        if cached is not None:
            return cached
        if name == self.MONTH_TRACE:
            config = self.parameters.month_workload
            stream = 6
        else:
            try:
                stream = self.WEEK_TRACES.index(name) + 1
            except ValueError:
                raise KeyError(f"unknown trace {name!r}") from None
            config = self.parameters.workload
        generator = TraceGenerator(self.built.catalog, config, seed=self.seed)
        trace = generator.generate(name, stream=stream)
        self._traces[name] = trace
        return trace

    @property
    def attack_start(self) -> float:
        """The paper's attack start: the beginning of day 7."""
        return 6 * DAY


@lru_cache(maxsize=4)
def make_scenario(scale: Scale = Scale.SMALL, seed: int = 7) -> Scenario:
    """Build (and memoise) the standard scenario for (scale, seed)."""
    parameters = _parameters_for(scale)
    built = build_hierarchy(parameters.hierarchy, seed=seed)
    return Scenario(scale=scale, seed=seed, built=built, parameters=parameters)
