"""Domain names as immutable, case-insensitive label sequences.

A :class:`Name` stores its labels most-significant-last, exactly like the
textual form reads: ``Name.from_text("www.ucla.edu")`` has labels
``("www", "ucla", "edu")``.  The root name has no labels.

Names are value objects: totally ordered by canonical DNS ordering
(reversed label comparison) and interned per-process, so that equal names
are one object and the simulator's hot paths compare and hash them by
identity.
"""

from __future__ import annotations

from repro.dns.errors import NameParseError
from repro.dns.rrtypes import RRTYPE_BITS, RRType

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

_LABEL_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")

# Process-wide intern table.  Names are tiny and the simulator re-creates
# the same handful of thousands of names millions of times; interning keeps
# both memory and equality checks cheap.
_INTERN: dict[tuple[str, ...], "Name"] = {}

# Dense id registry: `_BY_ID[name.iid] is name`.  Ids are handed out at
# intern time, so they are deterministic whenever the build order is —
# zone construction and trace generation intern every name in a fixed
# order before the replay hot path runs, which is what lets caches key on
# the id instead of the object (DESIGN.md §13).
_BY_ID: list["Name"] = []

_NS_CODE = int(RRType.NS)


class Name:
    """An immutable domain name.

    Use :meth:`from_text` or :func:`root_name` to construct instances;
    the raw constructor assumes already-validated lowercase labels.
    """

    __slots__ = ("labels", "iid", "_ancestors", "_wire_length", "_ns_chain")

    # _ancestors, _ns_chain and _wire_length are fill-only memos: the
    # labels and iid they derive from are set once in __new__, after
    # which __setattr__ raises and REP006 bans object.__setattr__.

    labels: tuple[str, ...]
    iid: int
    """Dense intern id; stable for the life of the process and
    deterministic given a deterministic build order."""

    def __new__(cls, labels: tuple[str, ...]) -> "Name":
        cached = _INTERN.get(labels)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "iid", len(_BY_ID))
        object.__setattr__(self, "_ancestors", None)
        object.__setattr__(self, "_ns_chain", None)
        # Each label costs its length plus a length octet; the root one.
        object.__setattr__(
            self, "_wire_length", sum(map(len, labels)) + len(labels) + 1
        )
        _BY_ID.append(self)
        _INTERN[labels] = self
        return self

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Name is immutable")

    # -- construction --------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a textual domain name.

        Accepts both absolute (``"ucla.edu."``) and relative-looking
        (``"ucla.edu"``) forms; all names are treated as fully qualified.
        ``""`` and ``"."`` denote the root.

        Raises:
            NameParseError: if a label is empty, too long, or contains a
                character outside ``[a-z0-9-_]`` (case-insensitive).
        """
        if text in ("", "."):
            return _ROOT
        stripped = text[:-1] if text.endswith(".") else text
        labels = []
        for raw_label in stripped.split("."):
            label = raw_label.lower()
            if not label:
                raise NameParseError(f"empty label in {text!r}")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameParseError(
                    f"label {label!r} exceeds {MAX_LABEL_LENGTH} octets"
                )
            if not set(label) <= _LABEL_OK:
                raise NameParseError(f"bad character in label {label!r}")
            labels.append(label)
        name = cls(tuple(labels))
        if name.wire_length() > MAX_NAME_LENGTH:
            raise NameParseError(f"name {text!r} exceeds {MAX_NAME_LENGTH} octets")
        return name

    # -- structure -----------------------------------------------------

    @property
    def is_root(self) -> bool:
        """True for the DNS root name."""
        return not self.labels

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        Raises:
            ValueError: when called on the root, which has no parent.
        """
        if self.is_root:
            raise ValueError("the root name has no parent")
        return Name(self.labels[1:])

    def child(self, label: str) -> "Name":
        """Prepend ``label``, producing a direct child of this name."""
        label = label.lower()
        if not label or len(label) > MAX_LABEL_LENGTH or not set(label) <= _LABEL_OK:
            raise NameParseError(f"bad label {label!r}")
        return Name((label,) + self.labels)

    def is_subdomain_of(self, other: "Name") -> bool:
        """True when this name equals ``other`` or lies beneath it."""
        n_other = len(other.labels)
        if n_other > len(self.labels):
            return False
        return n_other == 0 or self.labels[-n_other:] == other.labels

    def ancestors(self) -> tuple["Name", ...]:
        """Every ancestor from this name itself up to the root, as a tuple.

        ``Name.from_text("www.ucla.edu").ancestors()`` returns
        ``(www.ucla.edu, ucla.edu, edu, .)`` in that order.  The chain is
        computed once per interned name and reused — resolver hot paths
        (``best_zone_for``, DNSSEC chain walks) call this per query.
        """
        chain = self._ancestors
        if chain is None:
            labels = self.labels
            chain = tuple(
                Name(labels[index:]) for index in range(len(labels) + 1)
            )
            # Memoised fill of a slot derived purely from the immutable
            # labels; safe under interning.
            object.__setattr__(self, "_ancestors", chain)  # repro: ignore[REP006]
        return chain

    def ns_chain(self) -> tuple[tuple["Name", int], ...]:
        """``(ancestor, packed NS cache key)`` pairs, deepest first.

        Covers every non-root ancestor including the name itself; the
        packed key is ``(ancestor.iid << RRTYPE_BITS) | RRType.NS``, i.e.
        exactly what :class:`~repro.core.cache.DnsCache` stores NS entries
        under.  Precomputing the pairs turns ``best_zone_for`` — run once
        or more per query — into a flat walk over an interned tuple with
        no per-call key construction.
        """
        chain = self._ns_chain
        if chain is None:
            chain = tuple(
                (ancestor, (ancestor.iid << RRTYPE_BITS) | _NS_CODE)
                for ancestor in self.ancestors()
                if ancestor.labels
            )
            object.__setattr__(self, "_ns_chain", chain)  # repro: ignore[REP006]
        return chain

    def common_ancestor(self, other: "Name") -> "Name":
        """The deepest name that is an ancestor of both names."""
        shared: list[str] = []
        for mine, theirs in zip(reversed(self.labels), reversed(other.labels)):
            if mine != theirs:
                break
            shared.append(mine)
        shared.reverse()
        return Name(tuple(shared))

    def depth(self) -> int:
        """Number of labels (0 for the root, 1 for a TLD, ...)."""
        return len(self.labels)

    def wire_length(self) -> int:
        """Length of the RFC 1035 wire encoding in octets.

        Each label costs len+1 (length octet), plus the terminating zero;
        precomputed at intern time since message sizing sums this for
        every record of every response.
        """
        return self._wire_length

    # -- value semantics -------------------------------------------------

    # No __eq__ or __hash__: every Name is interned in __new__ (unpickling
    # comes back through it, see __reduce__), so equal labels are one
    # object and the identity comparison and hash every object inherits are
    # the value ones — run by dicts and sets without a Python frame.

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return tuple(reversed(self.labels)) < tuple(reversed(other.labels))

    def __le__(self, other: "Name") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return other < self

    def __ge__(self, other: "Name") -> bool:
        return self == other or other < self

    def __str__(self) -> str:
        if not self.labels:
            return "."
        return ".".join(self.labels) + "."

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def __reduce__(
        self,
    ) -> "tuple[type[Name], tuple[tuple[str, ...]]]":
        return (Name, (self.labels,))


_ROOT = Name(())


def root_name() -> Name:
    """The DNS root name (zero labels)."""
    return _ROOT


def name_for_id(iid: int) -> Name:
    """The interned :class:`Name` carrying ``iid``.

    Raises:
        IndexError: for an id no name has been assigned yet.
    """
    return _BY_ID[iid]


def intern_count() -> int:
    """How many distinct names this process has interned."""
    return len(_BY_ID)
