"""A tests-only propensity and state-change reference.

The kernels, the batch sweep, FSP enumeration and tau-leaping all read the
arrays and Python views that :meth:`CompiledNetwork.compile
<repro.sim.propensity.CompiledNetwork.compile>` builds.  This reference
reads the source network instead — :func:`~repro.sim.propensity
.reaction_propensity` on a :class:`~repro.crn.state.State` and
:meth:`Reaction.net_change <repro.crn.reaction.Reaction.net_change>` — so a
fault in compilation cannot hide on both sides of a comparison.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crn import State
from repro.sim import CompiledNetwork, reaction_propensity


def _state(compiled: CompiledNetwork, counts: Sequence[int]) -> State:
    return State.from_vector([int(c) for c in counts], compiled.species)


def propensity(compiled: CompiledNetwork, reaction_index: int, counts: Sequence[int]) -> float:
    """Propensity of one reaction given a count vector in compiled order."""
    reaction = compiled.network.reactions[reaction_index]
    return reaction_propensity(reaction, _state(compiled, counts))


def all_propensities(compiled: CompiledNetwork, counts: Sequence[int]) -> np.ndarray:
    """Propensities of every reaction given a count vector in compiled order."""
    state = _state(compiled, counts)
    return np.array(
        [reaction_propensity(r, state) for r in compiled.network.reactions], dtype=float
    )


def apply(compiled: CompiledNetwork, reaction_index: int, counts) -> None:
    """Apply one reaction's net change to the count vector ``counts`` in place."""
    index = compiled.species_index()
    for species, delta in compiled.network.reactions[reaction_index].net_change().items():
        counts[index[species]] += delta
