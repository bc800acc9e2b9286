"""Random number sourcing for the stochastic simulators.

All simulators draw randomness through :func:`make_rng`, so experiments are
reproducible given a seed.  Per-trial ensembles give trial ``i`` the stream
of NumPy's ``SeedSequence(seed).spawn(n)[i]`` (so trial streams are
statistically independent), derived a chunk at a time by
:func:`child_streams`; batched chunks and sweep points take integer
sub-seeds from :func:`derive_seed`.
"""

from __future__ import annotations

import hashlib
import numbers
import operator
from typing import Iterator

import numpy as np

from repro.errors import SimulationError

__all__ = ["make_rng", "child_streams", "derive_seed"]

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
#: 64-bit words of PCG64 seed material a SeedSequence generates (state, inc).
_PCG_WORDS = 4


def _checked_seed(seed: "int | None") -> "int | None":
    """``seed`` itself when it is ``None`` or a non-negative integer.

    Every seed reaches numpy through here, so a value numpy would refuse
    (a negative or non-integer one) or silently read as an integer (a
    bool) raises a :class:`~repro.errors.SimulationError` naming it instead.
    """
    if seed is None or (
        isinstance(seed, numbers.Integral) and not isinstance(seed, bool) and seed >= 0
    ):
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


class ChildStreams:
    """The random streams of consecutive trials, as one reused generator.

    Iterating yields a single :class:`~numpy.random.Generator`, reseeded
    before each trial to that trial's PCG64 state, so a trial must use it
    only until the next one is drawn: nothing may keep it past its trial.
    """

    def __init__(self, states: "list[tuple[int, int]]") -> None:
        self._states = states

    def __len__(self) -> int:
        return len(self._states)

    def state(self, index: int) -> dict:
        """The PCG64 ``bit_generator.state`` the ``index``-th trial starts from."""
        pcg_state, inc = self._states[index]
        return {
            "bit_generator": "PCG64",
            "state": {"state": pcg_state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def __iter__(self) -> Iterator[np.random.Generator]:
        generator = np.random.default_rng(0)
        bit_generator = generator.bit_generator
        pcg = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        for pcg_state, inc in self._states:
            pcg["state"] = pcg_state
            pcg["inc"] = inc
            bit_generator.state = state
            yield generator


def child_streams(seed: "int | None", start: int, stop: int) -> ChildStreams:
    """The streams of trials ``start..stop-1``, derived in one pass.

    Trial ``i`` draws exactly what ``default_rng(SeedSequence(seed).spawn(n)[i])``
    draws for any ``n > i``: the child NumPy builds as
    ``SeedSequence(seed, spawn_key=(i,))``.  The streams are keyed by the
    *global* trial index, so a worker simulating a shard of the ensemble
    draws the streams an inline run would have used for those trials —
    this is what makes per-trial ensemble results identical across worker
    counts and chunk widths.  ``seed=None`` draws fresh entropy once per
    call.

    Instead of a ``SeedSequence`` and a ``PCG64`` per trial, the chunk
    shares the root's entropy pool (every child mixes the run entropy
    first), hashes each trial's spawn-key words into a ``(pool_size,
    trials)`` array, draws the PCG64 seed material from it in the same
    array form, and runs PCG64's two seeding steps in Python integers.
    The yielded generator is shared (see :class:`ChildStreams`).
    """
    seed = _checked_seed(seed)
    start, stop = operator.index(start), operator.index(stop)
    if not 0 <= start <= stop:
        raise SimulationError(f"invalid trial range [{start}, {stop})")
    root = np.random.SeedSequence(seed)
    pool_size = root.pool_size
    # The root's pool is every child's after the run entropy is mixed in;
    # the hash constant has advanced one round per pool word filled,
    # pool_size - 1 per word mixed, and pool_size per entropy word beyond
    # the pool.
    extra_words = max(0, _n_words(int(root.entropy)) - pool_size)
    hash_const = _INIT_A * pow(
        _MULT_A, pool_size * pool_size + pool_size * extra_words, 1 << 32
    ) & _MASK32
    states: list[tuple[int, int]] = []
    low = start
    while low < stop:
        # Spawn keys of one width share their hash rounds.
        width = _n_words(low)
        high = min(stop, 1 << (32 * width))
        states += _pcg_states(root.pool, hash_const, _key_words(low, high, width))
        low = high
    return ChildStreams(states)


def _n_words(value: int) -> int:
    """How many uint32 words NumPy splits the non-negative ``value`` into."""
    return max(1, -(-value.bit_length() // 32))


def _key_words(low: int, high: int, width: int) -> "list[np.ndarray]":
    """Words ``0..width-1`` (least significant first) of each index in ``[low, high)``."""
    if high <= 1 << 64:
        index = np.arange(high - low, dtype=np.uint64) + np.uint64(low)
        return [(index >> np.uint64(32 * k)).astype(np.uint32) for k in range(width)]
    return [
        np.array([i >> (32 * k) & _MASK32 for i in range(low, high)], dtype=np.uint32)
        for k in range(width)
    ]


def _hash_rounds(hash_const: int, rounds: int, mult: int):
    """The constants of ``rounds`` consecutive SeedSequence hash rounds.

    A round XORs a word with the running constant, advances the constant
    by ``mult`` and multiplies the word by the advanced one.  Returns the
    XOR and multiply constants as ``(rounds, 1)`` uint32 columns and the
    constant after the last round.
    """
    xors, mults = [], []
    for _ in range(rounds):
        xors.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        mults.append(hash_const)
    return (
        np.array(xors, dtype=np.uint32)[:, None],
        np.array(mults, dtype=np.uint32)[:, None],
        hash_const,
    )


def _xorshift(words: np.ndarray) -> np.ndarray:
    return words ^ (words >> np.uint32(16))


def _pcg_states(
    root_pool: np.ndarray, hash_const: int, key_words: "list[np.ndarray]"
) -> "list[tuple[int, int]]":
    """PCG64 ``(state, inc)`` of each child whose spawn key has ``key_words``.

    Every array operation runs over the ``(pool_size, trials)`` pool of the
    whole range: each key word is hashed once per pool word and mixed into
    it, then ``generate_state(4, uint64)`` cycles the pool.
    """
    pool_size = root_pool.shape[0]
    pool = np.repeat(root_pool[:, None], key_words[0].shape[0], axis=1)
    for word in key_words:
        xors, mults, hash_const = _hash_rounds(hash_const, pool_size, _MULT_A)
        hashed = _xorshift((word ^ xors) * mults)
        pool = _xorshift(_MIX_MULT_L * pool - _MIX_MULT_R * hashed)
    xors, mults, _ = _hash_rounds(_INIT_B, 2 * _PCG_WORDS, _MULT_B)
    words = _xorshift((pool[np.arange(2 * _PCG_WORDS) % pool_size] ^ xors) * mults)
    words = words.astype(np.uint64)
    seed_high, seed_low, inc_high, inc_low = (
        words[0::2] | words[1::2] << np.uint64(32)
    ).tolist()
    states = []
    # PCG64 seeding: inc = 2·initseq + 1, then state = ((inc + initstate)·M + inc).
    for s_high, s_low, i_high, i_low in zip(seed_high, seed_low, inc_high, inc_low):
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        states.append(((((s_high << 64 | s_low) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


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
