"""Every benchmark input, generated from the workload seed.

The program under test only ever sees what these functions produce: per-call
simulation seeds, and for ``serve-mixed`` the request order, which requests
are new keys (misses), where both connections ask for the same new key at
once (duplicate bursts) and which hits arrive as species-renamed,
reaction-permuted variants.  The same seed always gives the same inputs.

The serve mix is *stratified*: where the heavy key and the bursts come,
which light model each new key runs, and how many hits each block of
requests holds of each sort, are fixed; the seed decides everything else
(order within a block, which earlier key a hit asks for, which hits are
variants, simulation seeds).  So every seed puts the same work into a run
of a given length, and runs with different seeds stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: Requests per block: one new key and nine hits, the issue's "about 9 in
#: 10 requests are hits".
BLOCK = 10

#: Every fifth block's new key is a duplicate burst: often enough that
#: every run holds several.  Five is prime to the six light models, which
#: new keys take in turn, so bursts rotate through all of them.  (With
#: seeded model order, which models fell on bursts changed with the seed,
#: and the miss median with it.)
BURST_EVERY = 5

#: Share of hits on the heavy (10^4-trial Example-1) key.  With light hits
#: at 80 % of the sorted hit latencies, the hit p50 falls 62.5 % into the
#: light class and the p90 halfway into the heavy class: each percentile is
#: one class's middle, far from the boundary where the two classes meet.
HEAVY_HIT_SHARE = 0.2

#: Share of light hits that ask for the renamed variant.  An arbitrary
#: pick: a minority, so plain hits set the light-class median.
VARIANT_SHARE = 0.3

#: Light hits ask only for the newest ``WINDOW`` light keys.  Between two
#: uses of a key in the window, hits reach back at most ``WINDOW - 1`` keys
#: before it and new keys come at most ``WINDOW - 1`` after it, so with the
#: heavy key (asked for in every block) at most ``2 * WINDOW`` = 120 keys
#: are used: every hit stays inside the store's 128-entry LRU hot tier,
#: however many requests a run gets through.  A faster build does more
#: requests, never colder ones.
WINDOW = 60


def seed_stream(seed: int, label: str) -> Iterator[int]:
    """Endless per-call simulation seeds for one workload stream."""
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield rng.randrange(1, 2**31 - 1)


@dataclass(frozen=True)
class Request:
    """One planned ``POST /simulate``.

    ``key`` indexes :attr:`ServePlan.keys`; ``variant`` asks for the renamed,
    reaction-permuted copy of the key's model (same canonical key, so it is
    a hit on the original's artifact).  A ``burst`` is sent by both
    connections at the same moment, before the key has been computed.
    """

    kind: str  # "miss", "burst" or "hit"
    key: int
    variant: bool = False


@dataclass(frozen=True)
class ServePlan:
    keys: "tuple[tuple[str, int], ...]"  # (model name, simulation seed)
    requests: "tuple[Request, ...]"


def serve_plan(seed: int, blocks: int, heavy: str, light: "tuple[str, ...]") -> ServePlan:
    """The ``heavy`` key as a duplicate burst, one light miss, then blocks.

    The heavy model is computed only there, at the start, so every run holds
    the same one concurrent duplicate of the costliest compute, rather than
    a heavy compute that may or may not fit before the run ends.  Each of
    the ``blocks`` blocks of :data:`BLOCK` requests then
    holds one new light key (the light models in turn) and
    ``BLOCK - 1`` hits on keys of earlier blocks, in seeded order; the new
    key of every :data:`BURST_EVERY`-th block (counting from the second) is a
    duplicate burst.  Hits on the heavy key make up :data:`HEAVY_HIT_SHARE`
    of all hits, and :data:`VARIANT_SHARE` of the hits on light keys ask for
    the renamed variant (the heavy model is a synthesized design, which has
    no renamed form).  Shares are kept exact over the running total.
    """
    rng = random.Random(f"serve:{seed}")
    keys: list[tuple[str, int]] = []
    pools: dict[bool, list[int]] = {True: [], False: []}

    def add_key(is_heavy: bool) -> int:
        model = heavy if is_heavy else light[len(pools[False]) % len(light)]
        keys.append((model, rng.randrange(1, 2**31 - 1)))
        pools[is_heavy].append(len(keys) - 1)
        return len(keys) - 1

    requests = [Request("burst", add_key(True)), Request("miss", add_key(False))]
    hits = BLOCK - 1
    heavy_hits = light_hits = variants = 0
    for index in range(blocks):
        n_heavy = int((index + 1) * hits * HEAVY_HIT_SHARE) - heavy_hits
        heavy_hits += n_heavy
        n_light = hits - n_heavy
        n_variants = int((light_hits + n_light) * VARIANT_SHARE) - variants
        light_hits += n_light
        variants += n_variants
        flags = [(True, False)] * n_heavy + [(False, True)] * n_variants
        flags += [(False, False)] * (n_light - n_variants)
        rng.shuffle(flags)
        items = [Request("hit", rng.choice(pools[is_heavy][-WINDOW:]), variant)
                 for is_heavy, variant in flags]

        kind = "burst" if index % BURST_EVERY == 1 else "miss"
        items.insert(rng.randrange(BLOCK), Request(kind, add_key(False)))
        requests.extend(items)
    return ServePlan(tuple(keys), tuple(requests))
