"""Typed dataclass fields from text, and their range checks.

``sweep --values`` tokens, ``--sharing`` overrides and fault-spec options
all become field values in :func:`parse_field_value`.
"""

from __future__ import annotations

from dataclasses import fields
from typing import (
    Any, Dict, Iterable, Mapping, Optional, Tuple, Union, get_args, get_origin,
    get_type_hints,
)

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class FieldError(ValueError):
    """A bad value for the field ``field``, whose message spells the field
    as ``spelled`` (default: its name) so that :meth:`naming` can put a
    front end's own spelling, such as a CLI flag, in its place."""

    def __init__(self, field: str, message: str, spelled: Optional[str] = None):
        super().__init__(message)
        self.field = field
        self.spelled = spelled or field

    def naming(self, name: str) -> str:
        """The message with the field spelled as ``name``."""
        return str(self).replace(self.spelled, name, 1)


def check_fields(owner: object, checks: Iterable[Tuple[str, bool, str]]) -> None:
    """Raise :class:`FieldError` for the first ``(name, ok, need)`` check
    whose ``ok`` is false: ``<name> must be <need>, got <value>``."""
    for name, ok, need in checks:
        if not ok:
            raise FieldError(
                name, f"{name} must be {need}, got {getattr(owner, name)}"
            )


def field_type(owner: type, name: str) -> Any:
    """The declared type of dataclass field ``owner.name``, reading
    ``Optional[X]`` as ``X``."""
    kind = get_type_hints(owner)[name]
    members = [arg for arg in get_args(kind) if arg is not type(None)]
    if get_origin(kind) is Union and len(members) == 1:
        return members[0]
    return kind


def parse_field_value(owner: type, name: str, raw: str) -> Any:
    """Parse one token as the declared type of dataclass field ``owner.name``.

    ``Optional[X]`` reads as ``X``.  Only bool, int, float and str fields
    hold a single token; any other field, an unknown field or a token
    that does not parse raises :class:`FieldError`.
    """
    known = sorted(f.name for f in fields(owner))
    if name not in known:
        raise FieldError(name, f"{name!r} is an unknown {owner.__name__} "
                               f"field (known: {', '.join(known)})")
    kind = field_type(owner, name)
    if kind is bool and raw.lower() in _TRUE + _FALSE:
        return raw.lower() in _TRUE
    if kind is bool:
        raise FieldError(name, f"{name!r} needs a bool ({'/'.join(_TRUE)} or "
                               f"{'/'.join(_FALSE)}), got {raw!r}")
    if kind not in (int, float, str):
        raise FieldError(name, f"{name!r} cannot be set from a single value")
    try:
        return kind(raw)
    except ValueError:
        raise FieldError(name, f"{name!r} needs a {kind.__name__}, "
                               f"got {raw!r}") from None


def parse_assignments(
    owner: type, text: str, aliases: Optional[Mapping[str, str]] = None
) -> Dict[str, Any]:
    """Parse ``key=value,...`` into typed values of ``owner``'s fields;
    ``aliases`` renames keys, and empty tokens are skipped."""
    values: Dict[str, Any] = {}
    for token in text.split(","):
        key, sep, raw = (part.strip() for part in token.partition("="))
        if key and not sep:
            raise FieldError(key, f"{key!r} has no value (expected key=value)")
        if sep:
            name = (aliases or {}).get(key, key)
            values[name] = parse_field_value(owner, name, raw)
    return values
