"""Load profiles for the dynamic-load experiments."""

from repro.loads.profiles import (
    PROFILE_SHAPES,
    available_shapes,
    day_shape,
    nyiso_like_winter_day,
    multi_day_profile,
    scale_profile_to_band,
)

__all__ = [
    "PROFILE_SHAPES",
    "available_shapes",
    "day_shape",
    "nyiso_like_winter_day",
    "multi_day_profile",
    "scale_profile_to_band",
]
