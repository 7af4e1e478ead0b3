"""The experiment registry: one protocol, one table, generated CLIs.

Every extension experiment follows the same shape — a frozen, picklable
``*Spec`` dataclass describing *what* to run, and a module-level
``run(spec)`` returning a renderable table.  :class:`CommandDef`
binds the two together with a CLI name and help line; the
``EXPERIMENTS`` table in :mod:`repro.experiments` is the registry the
CLI generates its subcommands from (and the stable lookup surface for
programmatic callers: ``EXPERIMENTS["churn"].run(spec)``).

CLI generation is driven by the spec dataclass itself: every field
becomes a ``--flag`` derived from its name, type and default, so a new
experiment gets a complete subcommand by writing only its spec and
runner.  Fields that cannot be expressed as flags (e.g. whole config
objects) opt out with ``field(metadata={"cli": False})``.
"""

from __future__ import annotations

import argparse
import dataclasses
import types
import typing
from typing import Any, Callable

from repro.experiments.scenarios import Scale


@dataclasses.dataclass(frozen=True)
class CommandDef:
    """One registry entry: a CLI subcommand's spec shape plus its runner.

    Experiments (the ``EXPERIMENTS`` table) return a
    :class:`~repro.experiments.table.ResultTable`; a command (``serve``)
    owns its output and returns a process exit status.  Both generate
    their flags from the frozen spec dataclass via
    :func:`add_spec_arguments`.  The CLI's other subcommands (``replay``,
    ``figure``, ``table``, ``trace``, ``check``, ``validate``) declare
    their flags with argparse directly.

    (Deliberately *not* named ``*Spec`` — the runner is a callable,
    which spec dataclasses are statically forbidden to carry.)
    """

    name: str
    help: str
    spec_type: type
    runner: Callable[[Any], Any]

    def run(self, spec: Any = None) -> Any:
        """Execute with ``spec`` (or the spec type's defaults)."""
        if spec is None:
            spec = self.spec_type()
        if not isinstance(spec, self.spec_type):
            raise TypeError(
                f"{self.name!r} expects {self.spec_type.__name__}, "
                f"got {type(spec).__name__}"
            )
        return self.runner(spec)


def _cli_fields(spec_type: type) -> "list[tuple[dataclasses.Field, Any]]":
    """The (field, resolved type) pairs that become CLI flags."""
    hints = typing.get_type_hints(spec_type)
    pairs = []
    for spec_field in dataclasses.fields(spec_type):
        if not spec_field.metadata.get("cli", True):
            continue
        pairs.append((spec_field, hints[spec_field.name]))
    return pairs


def _unwrap_optional(hint: Any) -> Any:
    """Collapses ``X | None`` to ``X``."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        members = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if len(members) == 1:
            return members[0]
    return hint


def add_spec_arguments(
    parser: argparse.ArgumentParser, spec_type: type
) -> None:
    """Add one ``--flag`` per CLI-visible field of ``spec_type``.

    Supported field shapes: bool, int, float, str (optionally ``| None``),
    :class:`Scale` ``| None`` (rendered as value choices), and
    homogeneous ``tuple[int, ...]`` / ``tuple[float, ...]`` (rendered as
    a comma-separated list).
    """
    for spec_field, hint in _cli_fields(spec_type):
        flag = "--" + spec_field.name.replace("_", "-")
        inner = _unwrap_optional(hint)
        default = spec_field.default
        helptext = str(spec_field.metadata.get("help", ""))
        if inner is bool:
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction,
                default=default, help=helptext or f"(default: {default})",
            )
        elif inner is Scale:
            add_scale_argument(parser, flag, helptext)
        elif typing.get_origin(inner) is tuple:
            element = typing.get_args(inner)[0]
            parser.add_argument(
                flag, default=None,
                help=(helptext or f"comma-separated {element.__name__}s")
                + f" (default: {','.join(str(v) for v in default)})",
            )
        elif inner in (int, float, str):
            parser.add_argument(
                flag, type=inner, default=default,
                help=helptext or f"(default: {default})",
            )
        else:  # pragma: no cover - new field shapes fail fast at build time
            raise TypeError(
                f"{spec_type.__name__}.{spec_field.name}: unsupported CLI "
                f"field type {hint!r}; mark it metadata={{'cli': False}}"
            )


def add_scale_argument(
    parser: argparse.ArgumentParser, flag: str = "--scale", helptext: str = ""
) -> None:
    """A ``--scale`` flag: value choices, default None (see
    :func:`resolve_scale`)."""
    parser.add_argument(
        flag, choices=[scale.value for scale in Scale], default=None,
        help=helptext or "experiment scale (default: $REPRO_SCALE or tiny)",
    )


def spec_from_args(spec_type: type, args: argparse.Namespace) -> Any:
    """Build a spec instance back out of parsed CLI arguments."""
    kwargs: dict[str, Any] = {}
    for spec_field, hint in _cli_fields(spec_type):
        value = getattr(args, spec_field.name)
        inner = _unwrap_optional(hint)
        if inner is Scale:
            kwargs[spec_field.name] = Scale(value) if value else None
        elif typing.get_origin(inner) is tuple:
            if value is None:
                kwargs[spec_field.name] = spec_field.default
            else:
                element = typing.get_args(inner)[0]
                kwargs[spec_field.name] = tuple(
                    element(part) for part in str(value).split(",") if part
                )
        else:
            kwargs[spec_field.name] = value
    return spec_type(**kwargs)


def resolve_scale(scale: "Scale | str | None") -> Scale:
    """A scale field or flag: explicit value, else $REPRO_SCALE, else TINY."""
    if scale:
        return Scale(scale)
    return Scale.from_env(default=Scale.TINY)
