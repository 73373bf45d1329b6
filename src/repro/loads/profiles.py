"""Hourly load profiles: daily shapes, multi-day horizons, normalisation.

The paper drives its dynamic-load experiments (Figs. 9-11) with the NYISO
hourly load trace of 25 January 2016.  That trace is not redistributable, so
this module provides synthetic day *shapes* with the same qualitative
structure — an overnight trough, a morning ramp, a midday plateau and an
evening peak around 6-7 PM for the winter weekday the paper uses — plus
weekend and summer variants for the time-series operation engine's longer
horizons.  Only the shape matters for the reproduced results: the MTD
operational cost rises with system load because congestion forces
redispatch, and the daily peak is where the trade-off bites.

Two layers build on the shapes:

* :func:`day_shape` / :data:`PROFILE_SHAPES` — normalised 24-hour shapes;
* :func:`multi_day_profile` — concatenate day shapes into an N-day horizon
  and affinely scale the whole horizon into an absolute MW band.

Per-case normalisation — the band as fractions of a network's nominal total
load — is :meth:`repro.timeseries.ProfileSpec.totals_mw`, and the operation
engine scales each hour's total onto the nominal per-bus loads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: Normalised (peak = 1.0) hourly shape of a winter weekday, hour 0 = 1 AM,
#: mirroring the qualitative shape of the NYISO 25-JAN-2016 trace used in
#: the paper: trough around 3-4 AM, morning ramp from 6 AM, sustained
#: daytime level, evening peak at 6-7 PM, decline towards midnight.
_WINTER_WEEKDAY_SHAPE = np.array(
    [
        0.700,  # 1 AM
        0.672,  # 2 AM
        0.655,  # 3 AM
        0.650,  # 4 AM
        0.664,  # 5 AM
        0.705,  # 6 AM
        0.780,  # 7 AM
        0.855,  # 8 AM
        0.895,  # 9 AM
        0.910,  # 10 AM
        0.918,  # 11 AM
        0.920,  # 12 PM
        0.915,  # 1 PM
        0.910,  # 2 PM
        0.905,  # 3 PM
        0.912,  # 4 PM
        0.945,  # 5 PM
        1.000,  # 6 PM  (evening peak)
        0.990,  # 7 PM
        0.960,  # 8 PM
        0.925,  # 9 PM
        0.880,  # 10 PM
        0.820,  # 11 PM
        0.755,  # 12 AM
    ]
)

#: Winter weekend: no commuter morning ramp — demand rises later and more
#: gently, the midday level sits below the weekday plateau, and the evening
#: peak (still around 7 PM) stays a few percent below the weekday's, so a
#: mixed weekday/weekend horizon keeps its relative day-to-day levels.
_WINTER_WEEKEND_SHAPE = 0.93 * np.array(
    [
        0.710,  # 1 AM
        0.680,  # 2 AM
        0.660,  # 3 AM
        0.652,  # 4 AM
        0.660,  # 5 AM
        0.678,  # 6 AM
        0.705,  # 7 AM
        0.745,  # 8 AM
        0.790,  # 9 AM
        0.830,  # 10 AM
        0.855,  # 11 AM
        0.868,  # 12 PM
        0.870,  # 1 PM
        0.865,  # 2 PM
        0.862,  # 3 PM
        0.875,  # 4 PM
        0.920,  # 5 PM
        0.985,  # 6 PM  (evening peak, slightly below the weekday's)
        1.000,  # 7 PM
        0.965,  # 8 PM
        0.930,  # 9 PM
        0.885,  # 10 PM
        0.830,  # 11 PM
        0.765,  # 12 AM
    ]
)

#: Summer weekday: cooling load builds through the day to a broad
#: mid-afternoon peak (4-5 PM) instead of the winter evening spike, a few
#: percent below the winter-weekday peak for the NYISO-like band used here.
_SUMMER_WEEKDAY_SHAPE = 0.97 * np.array(
    [
        0.660,  # 1 AM
        0.630,  # 2 AM
        0.612,  # 3 AM
        0.605,  # 4 AM
        0.615,  # 5 AM
        0.650,  # 6 AM
        0.715,  # 7 AM
        0.790,  # 8 AM
        0.855,  # 9 AM
        0.905,  # 10 AM
        0.940,  # 11 AM
        0.965,  # 12 PM
        0.980,  # 1 PM
        0.990,  # 2 PM
        0.997,  # 3 PM
        1.000,  # 4 PM  (afternoon cooling peak)
        0.998,  # 5 PM
        0.985,  # 6 PM
        0.955,  # 7 PM
        0.920,  # 8 PM
        0.885,  # 9 PM
        0.840,  # 10 PM
        0.780,  # 11 PM
        0.715,  # 12 AM
    ]
)

#: Registered day shapes, hour 0 = 1 AM, normalised so the *strongest* day
#: (the winter weekday) peaks at 1.0 and the other shapes keep their level
#: relative to it.
PROFILE_SHAPES: dict[str, np.ndarray] = {
    "winter-weekday": _WINTER_WEEKDAY_SHAPE,
    "winter-weekend": _WINTER_WEEKEND_SHAPE,
    "summer-weekday": _SUMMER_WEEKDAY_SHAPE,
    "flat": np.ones(24),
}


def available_shapes() -> tuple[str, ...]:
    """Sorted names of the registered 24-hour day shapes."""
    return tuple(sorted(PROFILE_SHAPES))


def day_shape(name: str) -> np.ndarray:
    """Return a copy of the normalised 24-hour shape registered as ``name``."""
    key = str(name).strip().lower()
    if key not in PROFILE_SHAPES:
        raise ConfigurationError(
            f"unknown profile shape {name!r}; available: {', '.join(available_shapes())}"
        )
    return PROFILE_SHAPES[key].copy()


def nyiso_like_winter_day(
    peak_load_mw: float = 220.0,
    min_load_mw: float = 143.0,
) -> np.ndarray:
    """Return 24 hourly total-load values with a winter-weekday shape.

    Parameters
    ----------
    peak_load_mw:
        Total system load at the evening peak (defaults to the ≈220 MW the
        paper's Fig. 10 shows for the scaled 14-bus system).
    min_load_mw:
        Total system load at the overnight trough (default ≈143 MW).

    Returns
    -------
    numpy.ndarray
        24 values, hour 0 corresponding to 1 AM as in the paper's plots.
    """
    if peak_load_mw <= 0 or min_load_mw <= 0:
        raise ConfigurationError("load levels must be positive")
    if min_load_mw >= peak_load_mw:
        raise ConfigurationError(
            f"min_load_mw ({min_load_mw}) must be below peak_load_mw ({peak_load_mw})"
        )
    return scale_profile_to_band(_WINTER_WEEKDAY_SHAPE, min_load_mw, peak_load_mw)


def scale_profile_to_band(
    shape: np.ndarray, low: float, high: float
) -> np.ndarray:
    """Affinely rescale a profile so its minimum is ``low`` and maximum ``high``."""
    profile = np.asarray(shape, dtype=float).ravel()
    if profile.size == 0:
        raise ConfigurationError("profile must contain at least one value")
    lo, hi = float(np.min(profile)), float(np.max(profile))
    if hi - lo < 1e-12:
        return np.full(profile.shape, 0.5 * (low + high))
    return low + (profile - lo) * (high - low) / (hi - lo)


def multi_day_profile(
    day_shapes: Sequence[str],
    peak_load_mw: float,
    min_load_mw: float,
) -> np.ndarray:
    """Hourly total loads over several days, scaled into one absolute band.

    The named day shapes are concatenated (24 hours each) and the *whole
    horizon* is affinely rescaled so its minimum is ``min_load_mw`` and its
    maximum ``peak_load_mw`` — weekend/summer days therefore keep their
    relative level against the strongest day rather than each being
    stretched to the same peak.

    Parameters
    ----------
    day_shapes:
        One registered shape name (see :func:`available_shapes`) per day,
        in order, e.g. ``["winter-weekday"] * 5 + ["winter-weekend"] * 2``.
    peak_load_mw, min_load_mw:
        Total-load band of the horizon.
    """
    if not day_shapes:
        raise ConfigurationError("multi_day_profile needs at least one day shape")
    if peak_load_mw <= 0 or min_load_mw <= 0:
        raise ConfigurationError("load levels must be positive")
    if min_load_mw >= peak_load_mw:
        raise ConfigurationError(
            f"min_load_mw ({min_load_mw}) must be below peak_load_mw ({peak_load_mw})"
        )
    horizon = np.concatenate([day_shape(name) for name in day_shapes])
    return scale_profile_to_band(horizon, min_load_mw, peak_load_mw)


__all__ = [
    "PROFILE_SHAPES",
    "available_shapes",
    "day_shape",
    "nyiso_like_winter_day",
    "multi_day_profile",
    "scale_profile_to_band",
]
