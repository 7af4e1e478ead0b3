"""DDoS attack modelling: windows of unreachable authoritative servers.

The paper's evaluation scenario: "at the beginning of the seventh day a
DDoS attack completely blocks the queries sent to the root zone and the
top level domains", with durations of 3 to 24 hours.
:func:`attack_on_root_and_tlds` builds exactly that; arbitrary target
sets support the §6 discussion (attacks on single zones, on providers,
maximum-damage searches).

Beyond the paper, every window carries an *intensity* — the probability
in [0, 1] that a query to a targeted server is dropped.  1.0 (the
default) reproduces the paper's total blackout; fractional intensities
model the partial-failure regime of Moura et al. (IMC 2018) and are
resolved per query by :mod:`repro.simulation.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.name import Name, root_name
from repro.hierarchy.tree import ZoneTree

DAY = 86400.0
HOUR = 3600.0


@dataclass(frozen=True)
class AttackWindow:
    """One attack: the listed zones' servers drop queries in [start, end).

    ``intensity`` is the per-query drop probability: 1.0 is the paper's
    total blackout, anything lower needs a fault injector on the network
    to resolve the per-query coin flips.
    """

    start: float
    end: float
    target_zones: frozenset[Name]
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"attack window [{self.start}, {self.end}) is empty")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(
                f"attack intensity must be in [0, 1], got {self.intensity}"
            )

    def active_at(self, now: float) -> bool:
        """Whether the attack is in progress at virtual time ``now``."""
        return self.start <= now < self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


class AttackSchedule:
    """A set of attack windows, resolvable to blocked server addresses.

    A server is blocked while *any* zone it serves is under an active
    attack — flooding a server takes out everything it hosts, which is
    why provider-hosted customers suffer when their provider is hit.
    Overlapping windows combine by maximum intensity.
    """

    def __init__(self, tree: ZoneTree, windows: list[AttackWindow] | None = None) -> None:
        self._tree = tree
        self._windows: list[AttackWindow] = []
        self._blocked_by_window: list[frozenset[str]] = []
        for window in windows or []:
            self.add_window(window)

    def add_window(self, window: AttackWindow) -> None:
        """Register an attack window (addresses are resolved eagerly)."""
        blocked: set[str] = set()
        for zone_name in window.target_zones:
            blocked.update(self._tree.addresses_for_zone(zone_name))
        self._windows.append(window)
        self._blocked_by_window.append(frozenset(blocked))

    def windows(self) -> tuple[AttackWindow, ...]:
        return tuple(self._windows)

    def block_intensity(self, address: str, now: float) -> float:
        """The drop probability for ``address`` at ``now`` (0.0 if safe)."""
        intensity = 0.0
        for window, blocked in zip(self._windows, self._blocked_by_window):
            if (
                window.start <= now < window.end
                and address in blocked
                and window.intensity > intensity
            ):
                intensity = window.intensity
        return intensity

    def is_blocked(self, address: str, now: float) -> bool:
        """Whether ``address`` is fully unreachable at ``now``."""
        return self.block_intensity(address, now) >= 1.0

    def any_active(self, now: float) -> bool:
        """Whether any attack is in progress at ``now``."""
        return any(window.active_at(now) for window in self._windows)

    def blocked_zone_names(self, now: float) -> set[Name]:
        """Zones under active attack at ``now``."""
        names: set[Name] = set()
        for window in self._windows:
            if window.active_at(now):
                names.update(window.target_zones)
        return names


def attack_on_root_and_tlds(
    tree: ZoneTree,
    start: float = 6 * DAY,
    duration: float = 6 * HOUR,
    intensity: float = 1.0,
) -> AttackSchedule:
    """The paper's scenario: root + every TLD blocked from ``start``.

    Defaults match the evaluation: attack begins at the start of day 7
    of a 7-day trace; the headline comparisons use a 6-hour attack.
    """
    targets = frozenset([root_name(), *tree.tld_names()])
    window = AttackWindow(
        start=start, end=start + duration, target_zones=targets,
        intensity=intensity,
    )
    return AttackSchedule(tree, [window])


def attack_on_zones(
    tree: ZoneTree,
    zones: list[Name],
    start: float = 6 * DAY,
    duration: float = 6 * HOUR,
    intensity: float = 1.0,
) -> AttackSchedule:
    """An attack on an arbitrary zone set (paper §6's other attack classes).

    Raises:
        ValueError: when ``zones`` is empty — a window that blocks
            nothing is always a caller bug, not a scenario.
    """
    if not zones:
        raise ValueError("attack_on_zones needs at least one target zone")
    window = AttackWindow(
        start=start, end=start + duration, target_zones=frozenset(zones),
        intensity=intensity,
    )
    return AttackSchedule(tree, [window])


@dataclass
class AttackBudgetPlan:
    """A budgeted target list for maximum-damage exploration (paper §6).

    ``budget`` counts attacked zones; the explorer in
    :mod:`repro.experiments.max_damage` fills ``targets`` greedily.
    """

    budget: int
    targets: list[Name] = field(default_factory=list)

    def remaining(self) -> int:
        return self.budget - len(self.targets)
