"""Random-number-generator plumbing.

Every stochastic routine in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` and converts it to a
generator via :func:`as_generator`.  This keeps all experiments reproducible
(the benchmark harness passes explicit seeds) while letting interactive users
write ``seed=0`` and forget about the details.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def as_generator(seed: int | np.random.Generator | np.random.SeedSequence | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for nondeterministic entropy, an integer seed, a
        ``SeedSequence``, or an already constructed generator (returned
        unchanged).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.default_rng(seed)


def spawn_generators(seed: int | np.random.Generator | np.random.SeedSequence | None, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Used by Monte-Carlo drivers that evaluate many attack vectors so that the
    per-attack noise streams do not overlap regardless of evaluation order.

    The caller's ``seed`` is never mutated: children are derived from the
    seed material (entropy + spawn key + current spawn count) rather than
    by drawing from the stream or advancing the spawn counter, so two
    consecutive calls with the same input yield the same children and a
    passed-in :class:`~numpy.random.Generator` keeps its state.  The spawn
    counter is still *read*, so children never collide with ones the
    caller already spawned itself.  Integer seeds and fresh
    ``SeedSequence`` inputs produce the same children as
    ``SeedSequence(seed).spawn(count)`` always did.

    The flip side of statelessness: the children occupy spawn keys
    ``offset .. offset+count-1`` without reserving them, so a caller that
    *afterwards* calls ``seq.spawn()`` on the same sequence (or calls this
    function again expecting fresh streams) receives those keys again.
    Repeatability is the contract here; callers needing further
    independent children from the same sequence should spawn their own
    before calling, or use distinct sequences.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's own seed material instead of
        # consuming its bit stream (which would advance the caller's state
        # and make repeated calls disagree).  Exotic bit generators without
        # a recorded seed sequence fall back to a one-off entropy draw from
        # an independent copy of the state, still leaving the caller intact.
        seq = getattr(seed.bit_generator, "seed_seq", None) or getattr(
            seed.bit_generator, "_seed_seq", None
        )
        if seq is None:  # pragma: no cover - non-SeedSequence bit generator
            entropy = int(np.random.Generator(seed.bit_generator.jumped()).integers(0, 2**63 - 1))
            seq = np.random.SeedSequence(entropy)
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    # Equivalent to ``seq.spawn(count)``, but without advancing the spawn
    # counter: the counter is only read (as the key offset), so children
    # stay disjoint from any the caller spawned before this call.
    offset = int(getattr(seq, "n_children_spawned", 0))
    children = [
        np.random.SeedSequence(entropy=seq.entropy, spawn_key=seq.spawn_key + (offset + i,))
        for i in range(count)
    ]
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


__all__ = [
    "as_generator",
    "spawn_generators",
    "SeedLike",
]
