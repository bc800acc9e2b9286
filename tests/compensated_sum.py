"""CPython 3.12's builtin ``sum()``, for tests that run on an older Python.

Since CPython 3.12, ``sum()`` adds floats with Neumaier's compensated
summation, so its result can differ in the last bit from a plain left to
right sum, which is what CPython 3.11 computes.  Patching
:func:`compensated_sum` into a module in place of the builtin reproduces
on 3.11 what that module computes on 3.12.

The emulation follows ``builtin_sum_impl`` in CPython 3.12's
``Python/bltinmodule.c`` for an iterable of floats and the default start
``0``: the integer start is added to the first item, the remaining items
are added with a running compensation, and the compensation is added once
at the end when it is finite and non-zero.
"""

from __future__ import annotations

import math


def compensated_sum(values, start=0):
    """``sum(values, start)`` as CPython 3.12 computes it for floats."""
    items = iter(values)
    total = start
    for item in items:
        total = start + item
        break
    compensation = 0.0
    for item in items:
        added = total + item
        if abs(total) >= abs(item):
            compensation += (total - added) + item
        else:
            compensation += (item - added) + total
        total = added
    if compensation and math.isfinite(compensation):
        total += compensation
    return total
