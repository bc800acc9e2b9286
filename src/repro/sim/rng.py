"""Random number sourcing for the stochastic simulators.

All simulators draw randomness through :func:`make_rng`, so experiments are
reproducible given a seed.  Per-trial ensembles give every trial its own
child stream (:func:`spawn_children_range`, NumPy ``SeedSequence`` spawning,
so trial streams are statistically independent), and batched chunks and
sweep points take integer sub-seeds from :func:`derive_seed`.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

from repro.errors import SimulationError

__all__ = ["make_rng", "spawn_children_range", "derive_seed"]


def _checked_seed(seed: "int | None") -> "int | None":
    """``seed`` itself when it is ``None`` or a non-negative integer.

    Every seed reaches numpy through here, so a value numpy would refuse
    (a negative or non-integer one) raises a
    :class:`~repro.errors.SimulationError` naming it instead.
    """
    if seed is None or (isinstance(seed, numbers.Integral) and seed >= 0):
        return seed
    raise SimulationError(f"seed must be a non-negative integer or None, got {seed!r}")


def make_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a NumPy :class:`~numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), a non-negative integer seed, or an
    existing generator (returned unchanged so callers can share a stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_checked_seed(seed))


def spawn_children_range(
    seed: "int | None", count: int, start: int, stop: int
) -> list[np.random.Generator]:
    """Generators for trials ``start..stop-1`` of a ``count``-trial ensemble.

    Spawning is keyed by the *global* trial index, so a worker simulating a
    shard of the ensemble draws exactly the streams an inline run would have
    used for those trials — this is what makes per-trial ensemble results
    identical across worker counts and chunk widths.

    The child for trial ``i`` is constructed directly as
    ``SeedSequence(entropy=root.entropy, spawn_key=(i,))`` — bit-identical to
    ``root.spawn(count)[i]`` — so a shard costs O(stop-start), not O(count);
    spawning all ``count`` children per chunk would make large sharded
    ensembles quadratic in the trial count.
    """
    if not 0 <= start <= stop <= count:
        raise ValueError(f"invalid trial range [{start}, {stop}) of {count}")
    root = np.random.SeedSequence(_checked_seed(seed))
    return [
        np.random.default_rng(
            np.random.SeedSequence(
                entropy=root.entropy, spawn_key=(i,), pool_size=root.pool_size
            )
        )
        for i in range(start, stop)
    ]


def derive_seed(seed: "int | None", *keys: "int | str") -> int:
    """Derive a deterministic integer sub-seed from ``seed`` and context keys.

    Handy for benchmarks that need distinct but reproducible seeds per sweep
    point (``derive_seed(base, "gamma", 1000)``), and used by the ensemble
    runner to key batch chunks.  String keys are hashed with a *stable*
    digest (not the built-in ``hash``, whose per-process randomization would
    make the result differ between interpreter invocations and between
    spawned worker processes).
    """
    seed = _checked_seed(seed)
    material: list[int] = [0 if seed is None else int(seed)]
    for key in keys:
        if isinstance(key, int):
            material.append(abs(key) % (2**31))
        else:
            digest = hashlib.sha256(str(key).encode("utf-8")).digest()
            material.append(int.from_bytes(digest[:4], "big") % (2**31))
    sequence = np.random.SeedSequence(material)
    return int(sequence.generate_state(1, dtype=np.uint32)[0])
