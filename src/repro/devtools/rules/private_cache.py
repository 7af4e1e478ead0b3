"""REP008 — no reaching into another module's private storage.

Each private field below belongs to the module that keeps its
invariants, and only that module may touch it:

* ``cache._entries`` / ``cache._negative`` bypass the cache API, so code
  built on them silently drifts from the documented semantics (and from
  what the differential oracle validates).  The cache's own package and
  the validation layer are exempt: the first owns the representation,
  the second audits it by design.
* ``Zone``'s content fields and its response memo live in
  ``dns/zone.py``.  Every operator action there clears the memo after
  changing the content; a write from anywhere else would leave memoized
  answers stale.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.checks import ModuleSource, Rule, Violation

_CACHE_OWNERS = ("repro/core/", "repro/validation/")
_ZONE_OWNER = ("repro/dns/zone.py",)

#: Private field -> (owning class, path fragments of the modules that
#: may touch it).
_OWNERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "_entries": ("DnsCache", _CACHE_OWNERS),
    "_negative": ("DnsCache", _CACHE_OWNERS),
    "_rrsets": ("Zone", _ZONE_OWNER),
    "_delegations": ("Zone", _ZONE_OWNER),
    "_apex_irrs": ("Zone", _ZONE_OWNER),
    "_existing_names": ("Zone", _ZONE_OWNER),
    "_response_cache": ("Zone", _ZONE_OWNER),
}


class PrivateCacheAccessRule(Rule):
    rule_id = "REP008"
    title = "no direct access to the cache's or a zone's private storage"
    rationale = (
        "cache._entries/_negative bypass the cache API and the "
        "differential oracle, and zone._rrsets and friends bypass the "
        "response-memo invalidation; use the public accessors and "
        "operator actions, or move the code into the owning module"
    )

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        path = module.display_path.replace("\\", "/")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = _OWNERS.get(node.attr)
            if owner is None:
                continue
            owner_class, owner_paths = owner
            if any(fragment in path for fragment in owner_paths):
                continue
            yield self.violation(
                module,
                node,
                f"direct access to {owner_class}.{node.attr}; go through "
                f"the {owner_class} API instead",
            )
