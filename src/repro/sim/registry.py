"""Capability-aware simulation-engine registry.

Engines used to live in two hard-coded dictionaries inside
:mod:`repro.sim.ensemble` (``ENGINES`` for per-trial simulators,
``BATCH_ENGINES`` for vectorized batch engines), which meant that

* adding an engine required editing the ensemble module,
* engine-specific options (e.g. :class:`~repro.sim.tau_leaping.TauLeapOptions`)
  were unreachable once an engine was selected by name, and
* callers had no way to ask *what an engine can do* (is it exact? batched?
  does it honour stopping conditions?).

This module replaces both dictionaries with a single :class:`EngineRegistry`.
Engines self-register via the :func:`register_engine` decorator together with
capability metadata (:class:`EngineInfo`), and engine-specific options flow
through a typed ``engine_options`` channel: each entry declares its options
dataclass and the constructor keyword it is delivered through.

Third-party engines register without touching this package::

    from repro.sim.registry import register_engine
    from repro.sim.direct import DirectMethodSimulator

    @register_engine("my-direct", exact=True, summary="custom direct method")
    class MyDirect(DirectMethodSimulator):
        ...

and are immediately selectable by name everywhere an engine string is
accepted (``Experiment.simulate(engine="my-direct")``,
``ParallelEnsembleRunner``, the CLI ``--engine`` flag, ...).
"""

from __future__ import annotations

import difflib
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import EnsembleError

__all__ = [
    "EngineInfo",
    "EngineRegistry",
    "register_engine",
    "registry",
]


@dataclass(frozen=True)
class EngineInfo:
    """One registered engine: its class plus capability metadata.

    Attributes
    ----------
    name:
        Selection key (``"direct"``, ``"batch-direct"``, ...).
    cls:
        The engine class.  Per-trial engines follow the
        :class:`~repro.sim.base.StochasticSimulator` protocol; batched engines
        additionally expose ``run_batch``.
    exact:
        Samples the exact SSA process (direct / first-reaction /
        next-reaction / batch-direct).
    approximate:
        Trades exactness for speed (tau-leaping) or models the mean field
        (ode).
    batched:
        Simulates many trials per call via ``run_batch`` — the ensemble
        runner dispatches these specially.
    supports_events:
        Honours stopping conditions (:mod:`repro.sim.events`).
    deterministic:
        Produces the same trajectory every run (mean-field ODE); such engines
        are rejected by Monte-Carlo ensembles, where repetition is pointless.
    computes_distribution:
        Computes the exact outcome distribution directly (finite state
        projection) instead of sampling trajectories;
        :meth:`repro.api.Experiment.simulate` dispatches such engines to
        their distribution solver rather than a Monte-Carlo runner.
    backends:
        Kernel backends the engine supports (``"numpy"`` array kernels,
        ``"numba"`` JIT) — the values accepted by
        ``SimulationOptions.backend`` / ``Experiment.simulate(backend=...)``
        / the CLI ``--backend`` flag.  Empty for engines the backend layer
        does not apply to (``ode``, ``fsp``).
    options_type:
        Dataclass type accepted through the ``engine_options`` channel, or
        ``None`` when the engine has no tuning knobs.
    options_param:
        Constructor keyword the options object is delivered through.
    summary:
        One-line human description (shown in ``--engine`` help and the
        capability matrix).
    """

    name: str
    cls: type
    exact: bool
    approximate: bool = False
    batched: bool = False
    supports_events: bool = True
    deterministic: bool = False
    computes_distribution: bool = False
    backends: tuple = ()
    options_type: "type | None" = None
    options_param: "str | None" = None
    summary: str = ""

    def validate_options(self, engine_options: "Any | None") -> None:
        """Check an ``engine_options`` payload against the registered type.

        Passing options to an engine that declares none is an error (they
        would otherwise be silently dropped — the failure mode this channel
        exists to eliminate), as is passing the wrong dataclass.
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

    def create(self, network, seed=None, engine_options: "Any | None" = None):
        """Instantiate the engine, threading typed options through."""
        self.validate_options(engine_options)
        kwargs: dict[str, Any] = {}
        if engine_options is not None:
            kwargs[self.options_param or "options"] = engine_options
        return self.cls(network, seed=seed, **kwargs)

    def capabilities(self) -> dict[str, object]:
        """Flat capability row (used by docs and ``repro engines``)."""
        return {
            "engine": self.name,
            "exact": self.exact,
            "approximate": self.approximate,
            "batched": self.batched,
            "events": self.supports_events,
            "deterministic": self.deterministic,
            "distribution": self.computes_distribution,
            "backends": ",".join(self.backends) if self.backends else "-",
            "options": self.options_type.__name__ if self.options_type else "-",
            "summary": self.summary,
        }


class EngineRegistry:
    """Mutable mapping from engine names to :class:`EngineInfo` entries.

    The module-level :data:`registry` instance is the single source of engine
    names for the whole library; independent instances can be created for
    testing.  A ``loader`` callable, when given, is invoked once before the
    first lookup — the default registry uses it to import the built-in engine
    modules so their decorators run (self-registration keeps this module free
    of engine imports and therefore free of import cycles).
    """

    def __init__(self, loader: "Callable[[], None] | None" = None) -> None:
        self._engines: dict[str, EngineInfo] = {}
        self._loader = loader
        self._loaded = loader is None

    # -- registration ------------------------------------------------------------

    def register(
        self,
        name: str,
        *,
        exact: bool,
        approximate: bool = False,
        batched: bool = False,
        supports_events: bool = True,
        deterministic: bool = False,
        computes_distribution: bool = False,
        backends: "tuple | None" = None,
        options_type: "type | None" = None,
        options_param: "str | None" = None,
        summary: str = "",
    ) -> "Callable[[type], type]":
        """Class decorator registering an engine under ``name``.

        ``backends`` defaults to the class's ``supported_backends`` attribute
        (the convention the kernel-backed engines follow), else none.
        """

        def decorator(cls: type) -> type:
            if name in self._engines:
                raise EnsembleError(
                    f"engine {name!r} is already registered "
                    f"(to {self._engines[name].cls.__name__})"
                )
            resolved_backends = backends
            if resolved_backends is None:
                resolved_backends = getattr(cls, "supported_backends", ())
            self._engines[name] = EngineInfo(
                name=name,
                cls=cls,
                exact=exact,
                approximate=approximate,
                batched=batched,
                supports_events=supports_events,
                deterministic=deterministic,
                computes_distribution=computes_distribution,
                backends=tuple(resolved_backends),
                options_type=options_type,
                options_param=options_param,
                summary=summary,
            )
            return cls

        return decorator

    def unregister(self, name: str) -> None:
        """Remove an engine (primarily for tests of third-party registration)."""
        self._ensure_loaded()
        self._engines.pop(name, None)

    # -- lookup ------------------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self._loaded = True
            self._loader()

    def get(self, name: str) -> EngineInfo:
        """Resolve an engine name, or raise with the live list and a suggestion."""
        self._ensure_loaded()
        try:
            return self._engines[name]
        except KeyError:
            message = f"unknown engine {name!r}; available: {self.names()}"
            close = difflib.get_close_matches(name, self.names(), n=1)
            if close:
                message += f" — did you mean {close[0]!r}?"
            raise EnsembleError(message) from None

    def names(self) -> list[str]:
        """All selectable engine names, sorted."""
        self._ensure_loaded()
        return sorted(self._engines)

    def per_trial_names(self) -> list[str]:
        """Names of engines simulated one trial at a time."""
        self._ensure_loaded()
        return sorted(n for n, e in self._engines.items() if not e.batched)

    def batched_names(self) -> list[str]:
        """Names of engines that vectorize whole batches."""
        self._ensure_loaded()
        return sorted(n for n, e in self._engines.items() if e.batched)

    def create(self, network, name: str, seed=None, engine_options=None):
        """Instantiate the engine registered under ``name``."""
        return self.get(name).create(network, seed=seed, engine_options=engine_options)

    def capability_matrix(self) -> list[dict[str, object]]:
        """One capability row per engine, sorted by name (docs / CLI table)."""
        self._ensure_loaded()
        return [self._engines[n].capabilities() for n in self.names()]

    # -- mapping protocol --------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._engines

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._engines)


#: Modules whose import registers the built-in engines.
_BUILTIN_ENGINE_MODULES = (
    "repro.sim.direct",
    "repro.sim.first_reaction",
    "repro.sim.next_reaction",
    "repro.sim.tau_leaping",
    "repro.sim.batch",
    "repro.sim.ode",
    "repro.sim.fsp",
)


def _load_builtin_engines() -> None:
    for module in _BUILTIN_ENGINE_MODULES:
        importlib.import_module(module)


#: The default registry — the single source of engine names for the library.
registry = EngineRegistry(loader=_load_builtin_engines)


def register_engine(
    name: str,
    *,
    exact: bool,
    approximate: bool = False,
    batched: bool = False,
    supports_events: bool = True,
    deterministic: bool = False,
    computes_distribution: bool = False,
    backends: "tuple | None" = None,
    options_type: "type | None" = None,
    options_param: "str | None" = None,
    summary: str = "",
) -> "Callable[[type], type]":
    """Register an engine class in the default :data:`registry` (decorator)."""
    return registry.register(
        name,
        exact=exact,
        approximate=approximate,
        batched=batched,
        supports_events=supports_events,
        deterministic=deterministic,
        computes_distribution=computes_distribution,
        backends=backends,
        options_type=options_type,
        options_param=options_param,
        summary=summary,
    )
