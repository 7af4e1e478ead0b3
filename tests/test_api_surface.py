"""The ``repro`` and ``repro.api`` facades: every name works, nothing
private leaks.

DESIGN.md's contract for a facade is a curated, stable ``__all__``;
these tests keep both honest against drift in either direction — entries
that stopped importing, and public objects that were added to the
module body but never listed (or listed but actually private).
"""

from __future__ import annotations

import pickle
import types

import pytest

import repro
from repro import api

FACADES = pytest.mark.parametrize(
    "facade", [repro, api], ids=lambda module: module.__name__
)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@FACADES
def test_every_all_entry_resolves(facade) -> None:
    for name in facade.__all__:
        assert hasattr(facade, name), (
            f"{facade.__name__}.__all__ lists missing name {name!r}"
        )


@FACADES
def test_all_is_sorted_and_unique(facade) -> None:
    assert len(set(facade.__all__)) == len(facade.__all__)
    assert list(facade.__all__) == sorted(facade.__all__)


@FACADES
def test_no_private_or_module_leaks(facade) -> None:
    """``__all__`` must list exactly the public non-module attributes.

    Modules reachable as attributes (``repro.core`` etc.) are import
    side effects, not API; private names must never be listed.  Dunder
    metadata such as ``__version__`` may be listed.
    """
    listed = {name for name in facade.__all__ if not _is_dunder(name)}
    public = {
        name
        for name, value in vars(facade).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and name != "annotations"
    }
    assert listed == public, (
        f"unlisted public names: {sorted(public - listed)}; "
        f"listed but absent: {sorted(listed - public)}"
    )


@FACADES
def test_star_import_matches_all(facade) -> None:
    namespace: dict[str, object] = {}
    exec(f"from {facade.__name__} import *", namespace)  # noqa: S102
    assert set(namespace) - {"__builtins__"} == set(facade.__all__)


def test_new_pr8_names_are_exported() -> None:
    from repro.api import Clock, ServeSpec, serve

    assert callable(serve)
    spec = ServeSpec()
    assert pickle.loads(pickle.dumps(spec)) == spec
    # The Clock protocol is runtime-checkable, and a bare engine
    # satisfies it.
    from repro.simulation.engine import SimulationEngine

    assert isinstance(SimulationEngine(), Clock)


def test_second_clock_and_stage_timer_are_gone() -> None:
    # A replay's engine is its Clock, and the perf ledger is the one
    # stage timer: neither a clock wrapper nor a timer type is exported.
    from repro import obs

    for name in ("VirtualClock", "StageTimings"):
        assert not hasattr(api, name)
    for name in ("PhaseStats", "StageTimings", "maybe_stage"):
        assert not hasattr(obs, name)
