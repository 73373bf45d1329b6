"""Structured logging for the telemetry subsystem.

Everything logs through the ``repro.telemetry`` logger.  By default the
logger is silent (no handler, and its info-level events sit below the root
logger's default ``WARNING`` level); the CLI's
``--log-level``/``--log-json`` flags call :func:`configure_logging`, which
attaches either a human-readable or a line-JSON handler to stderr.

:func:`log_event` is the library-facing API: a named event plus flat
key/value fields, e.g. ``log_event("campaign.shard.done", shard=3,
wall_seconds=1.2)``.  In JSON mode each event is one parseable line::

    {"ts": 1722945600.1, "level": "info", "event": "campaign.shard.done",
     "shard": 3, "wall_seconds": 1.2}
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import Any, TextIO

#: Name of the telemetry logger (child loggers inherit its handlers).
LOGGER_NAME = "repro.telemetry"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: timestamp, level, event, flat fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "event": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict):
            for key, value in fields.items():
                payload.setdefault(key, value)
        return json.dumps(payload, sort_keys=False, default=str)


class TextFormatter(logging.Formatter):
    """Compact human-readable form: ``HH:MM:SS level event k=v ...``."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        line = f"{stamp} {record.levelname.lower():<7} {record.getMessage()}"
        fields = getattr(record, "fields", None)
        if isinstance(fields, dict) and fields:
            line += " " + " ".join(f"{k}={v}" for k, v in fields.items())
        return line


def parse_level(level: str | int) -> int:
    """Map a CLI level name (or numeric level) to a :mod:`logging` level."""
    if isinstance(level, int):
        return level
    try:
        return _LEVELS[str(level).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; use one of {', '.join(_LEVELS)}"
        ) from None


def configure_logging(
    level: str | int = "info",
    json_output: bool = False,
    stream: TextIO | None = None,
) -> logging.Handler:
    """Attach a (single) stderr handler to the telemetry logger.

    Re-configuring replaces the previous handler, so repeated CLI
    invocations in one process never double-log.  Returns the handler
    (tests capture its stream).
    """
    logger = logging.getLogger(LOGGER_NAME)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLineFormatter() if json_output else TextFormatter())
    logger.addHandler(handler)
    logger.setLevel(parse_level(level))
    logger.propagate = False
    return handler


def log_event(event: str, level: int = logging.INFO, **fields: Any) -> None:
    """Emit one structured event through the telemetry logger."""
    logger = logging.getLogger(LOGGER_NAME)
    if logger.isEnabledFor(level):
        logger.log(level, event, extra={"fields": fields})


__all__ = [
    "LOGGER_NAME",
    "JsonLineFormatter",
    "TextFormatter",
    "configure_logging",
    "parse_level",
    "log_event",
]
