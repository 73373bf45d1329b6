"""Random-number-generator plumbing.

Every stochastic routine in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` and converts it to a
generator via :func:`as_generator`.  This keeps all experiments reproducible
(the benchmark harness passes explicit seeds) while letting interactive users
write ``seed=0`` and forget about the details.
"""

from __future__ import annotations

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


__all__ = [
    "as_generator",
    "SeedLike",
]
