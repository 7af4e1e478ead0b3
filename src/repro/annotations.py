"""Zero-cost source annotations read by the whole-program audit.

The :mod:`repro.devtools.audit` analyzer enforces cross-module
invariants (memo-invalidation completeness, pickle safety, ...)
that it cannot infer from bare code alone.  The conventions here are the
declaration side of that contract:

* ``@invalidates("memo")`` marks a method as the *invalidator* of a memo
  declared with a ``# repro: memo(...)`` class-body comment.  The audit
  cross-checks that the declared invalidator carries the decorator and
  that every mutator of the memo's dependency fields reaches it.
* ``# repro: memo(name: field=_f, depends=[a, b], invalidator=m)`` —
  class-body comment declaring a memoized derived view: which instance
  fields the cached value is computed from and which method clears it
  (``invalidator=none`` for fill-only memos whose mutators must clear
  the storage field directly).
* ``# repro: pickled-boundary`` — class-body comment marking a spec or
  summary dataclass that crosses the worker process boundary; every
  field type transitively reachable from it must stay picklable.

The decorator is deliberately a no-op at runtime: annotations must never
cost the hot path anything.  All enforcement is static.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable[..., object])

__all__ = ["invalidates"]


def invalidates(*memos: str) -> Callable[[_F], _F]:
    """Declare that the decorated method invalidates the named memos.

    Purely declarative: the decorated function is returned unchanged.
    The audit (``repro audit``, rule REP010) uses the decorator to
    verify that the method named by a ``# repro: memo(...)`` declaration
    really is marked as that memo's invalidator, so renames and
    refactors cannot silently detach the two.
    """
    if not memos:
        raise ValueError("@invalidates needs at least one memo name")

    def mark(func: _F) -> _F:
        return func

    return mark
