"""Descriptor field readers: one spelling per scalar.

Stopping conditions, classifiers and adaptive targets read their JSON
descriptors (what the result store hashes and ``repro serve`` accepts)
through :func:`descriptor_field` and these parsers, so ``true``, ``"10"``
and ``10.5`` are refused where a count goes instead of read as one.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping

__all__ = [
    "descriptor_field", "integral", "read_count", "number", "text", "names", "mapping", "sequence",
]

_REQUIRED = object()


def descriptor_field(data: Mapping, name: str, parse, default=_REQUIRED):
    """``parse(data[name])``, or ``default`` when the field is absent; a
    missing required field or a refused value raises ``ValueError`` naming it."""
    if name not in data:
        if default is _REQUIRED:
            raise ValueError(f"{data.get('type')!r} descriptor is missing field {name!r}")
        return default
    try:
        return parse(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{data.get('type')!r} descriptor field {name!r}: {exc}") from exc


def integral(value) -> int:
    """``value`` as an ``int``: an integer or an integral float.

    A fractional number (1.5 is not 1), a bool or a string (``true`` and
    ``"1"`` are not 1) is refused, so a count read from a payload has one
    spelling per value.
    """
    if isinstance(value, bool) or not isinstance(value, (numbers.Integral, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def read_count(name: str, value, error: type) -> int:
    """``integral(value)``; a refused value raises ``error`` naming ``name``.

    How the facade, the ensemble runner and the payload writer read their
    ``trials``, ``n_trials`` and ``chunk_size`` arguments.
    """
    try:
        return integral(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{name}: {exc}") from None


def number(value) -> float:
    """A number (not a bool or a string) as a ``float``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def text(value) -> str:
    """A string (a label, a species or a reaction name), not a number."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def names(value) -> "dict[str, str]":
    """A ``{label: species or reaction name}`` mapping of strings."""
    return {text(label): text(name) for label, name in mapping(value).items()}


def mapping(value) -> Mapping:
    if not isinstance(value, Mapping):
        raise TypeError(f"expected a mapping, got {value!r}")
    return value


def sequence(value) -> list:
    """A JSON array (a list or a tuple), not a string or a mapping."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {value!r}")
    return list(value)
