"""The engine table: one row per simulation engine, keyed by name.

A row (:class:`EngineInfo`) holds the engine's class, whether it samples the
exact process, its options dataclass, a summary and its **kind**, which says
which path runs it: ``per-trial`` (a
:class:`~repro.sim.base.StochasticSimulator`; ensembles run each chunk through
``run_slice``), ``batched`` (``run_group`` sweeps whole chunks in lock-step),
``distribution`` (computes the exact outcome distribution; no seed, no
stopping condition) or ``mean-field`` (one deterministic trajectory;
ensembles refuse it).  An engine with an options dataclass takes it as the
constructor keyword ``engine_options``.

Engines register next to their class, so this module imports no engine
module before the first lookup, which imports the built-in ones.  An engine
defined elsewhere registers the same way and is then selectable by name
wherever an engine string is accepted::

    @register_engine("my-direct", kind="per-trial", exact=True, summary="custom direct")
    class MyDirect(DirectMethodSimulator):
        ...
"""

from __future__ import annotations

import difflib
import importlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import EnsembleError

__all__ = [
    "KINDS",
    "SAMPLING_KINDS",
    "EngineInfo",
    "register_engine",
    "get",
    "names",
    "capability_matrix",
    "make_simulator",
]

#: The engine kinds, in the order the module docstring describes them.
KINDS = ("per-trial", "batched", "distribution", "mean-field")

#: The kinds that sample trajectories: Monte-Carlo ensembles run only these.
SAMPLING_KINDS = ("per-trial", "batched")


@dataclass(frozen=True)
class EngineInfo:
    """One engine: its name, class, kind, exactness, options type and summary."""

    name: str
    cls: type
    kind: str
    exact: bool
    options_type: "type | None" = None
    summary: str = ""

    @property
    def backends(self) -> "tuple[str, ...]":
        """The kernel backends the class declares (``supported_backends``)."""
        return tuple(getattr(self.cls, "supported_backends", ()))

    def validate_options(self, engine_options: "Any | None") -> None:
        """Refuse ``engine_options`` the engine does not declare.

        Options passed to an engine without an options type would be
        silently dropped, and options of another type would not be read.
        """
        if engine_options is None:
            return
        if self.options_type is None:
            raise EnsembleError(
                f"engine {self.name!r} does not accept engine options "
                f"(got {type(engine_options).__name__})"
            )
        if not isinstance(engine_options, self.options_type):
            raise EnsembleError(
                f"engine {self.name!r} expects engine_options of type "
                f"{self.options_type.__name__}, got {type(engine_options).__name__}"
            )

    def capabilities(self) -> "dict[str, object]":
        """The engine's ``repro engines`` / ``GET /engines`` row."""
        return {
            "engine": self.name,
            "exact": self.exact,
            "approximate": not self.exact,
            "batched": self.kind == "batched",
            "events": self.kind in SAMPLING_KINDS,
            "deterministic": self.kind not in SAMPLING_KINDS,
            "distribution": self.kind == "distribution",
            "backends": ",".join(self.backends) if self.backends else "-",
            "options": self.options_type.__name__ if self.options_type else "-",
            "summary": self.summary,
        }


_ENGINES: "dict[str, EngineInfo]" = {}

#: The ``repro.sim`` modules whose import registers the built-in engines.
_BUILTIN_ENGINE_MODULES = (
    "direct", "first_reaction", "next_reaction", "tau_leaping", "batch", "ode", "fsp"
)
_loaded = False


def register_engine(
    name: str,
    *,
    kind: str,
    exact: bool,
    options_type: "type | None" = None,
    summary: str = "",
) -> "Callable[[type], type]":
    """Class decorator adding the engine ``name`` to the table.

    An unknown ``kind`` or a name already in the table raises
    :class:`~repro.errors.EnsembleError`.
    """
    if kind not in KINDS:
        raise EnsembleError(f"unknown engine kind {kind!r}; expected one of {list(KINDS)}")

    def decorator(cls: type) -> type:
        if name in _ENGINES:
            raise EnsembleError(
                f"engine {name!r} is already registered (to {_ENGINES[name].cls.__name__})"
            )
        _ENGINES[name] = EngineInfo(name, cls, kind, exact, options_type, summary)
        return cls

    return decorator


def _table() -> "dict[str, EngineInfo]":
    global _loaded
    if not _loaded:
        _loaded = True
        for module in _BUILTIN_ENGINE_MODULES:
            importlib.import_module(f"repro.sim.{module}")
    return _ENGINES


def get(name: str) -> EngineInfo:
    """The row of engine ``name``; an unknown name raises with the live list
    of engines and the closest match."""
    try:
        return _table()[name]
    except KeyError:
        message = f"unknown engine {name!r}; available: {names()}"
        close = difflib.get_close_matches(name, names(), n=1)
        if close:
            message += f" — did you mean {close[0]!r}?"
        raise EnsembleError(message) from None


def names() -> "list[str]":
    """Every engine name, sorted."""
    return sorted(_table())


def capability_matrix() -> "list[dict[str, object]]":
    """One :meth:`EngineInfo.capabilities` row per engine, sorted by name."""
    return [_table()[name].capabilities() for name in names()]


def make_simulator(network, engine: str = "direct", seed=None, engine_options=None):
    """An instance of engine ``engine`` over ``network``.

    Any engine is accepted; a batched engine's ``run()`` simulates a batch
    of one.  ``engine_options`` is the engine's options dataclass (e.g.
    :class:`~repro.sim.tau_leaping.TauLeapOptions` for ``"tau-leaping"``),
    checked against its type and passed as the constructor keyword
    ``engine_options``.
    """
    info = get(engine)
    info.validate_options(engine_options)
    if engine_options is None:
        return info.cls(network, seed=seed)
    return info.cls(network, seed=seed, engine_options=engine_options)
