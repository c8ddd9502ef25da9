"""Structured experiment logging.

Experiment progress/status output goes through :class:`ObsLogger`
instead of bare ``print()`` (enforced by ``repro analyze`` RPL009 on
``src/repro/experiments/``).  The logger writes human-readable lines
to a configurable stream *and* can mirror records into a trace sink,
so a sweep's status history lands in the same JSONL artifact as its
simulation events.

CLI-facing presentation output (``render()`` tables, figure text) is
not logging and stays ``print()``-based in ``cli.py``.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, IO, Optional

from .sinks import TraceSink

__all__ = [
    "ObsLogger",
    "get_logger",
    "set_log_level",
    "set_log_stream",
    "LEVELS",
]

#: Severity order; records below the configured level are dropped.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_STATE: Dict[str, Any] = {
    "level": LEVELS["info"],
    "stream": None,  # None -> sys.stderr resolved at write time
}

_LOGGERS: Dict[str, "ObsLogger"] = {}


def set_log_level(level: str) -> None:
    """Set the global threshold (``debug``/``info``/``warning``/``error``)."""
    try:
        _STATE["level"] = LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
        ) from None


def set_log_stream(stream: Optional[IO[str]]) -> None:
    """Redirect log output (None restores the default, sys.stderr)."""
    _STATE["stream"] = stream


def get_logger(name: str) -> "ObsLogger":
    """The process-wide logger for *name* (created on first use)."""
    logger = _LOGGERS.get(name)
    if logger is None:
        logger = _LOGGERS[name] = ObsLogger(name)
    return logger


class ObsLogger:
    """A minimal structured logger.

    Each call produces one line ``[name] message key=value ...`` on the
    configured stream and, when a sink is attached, one ``log`` record
    in the trace.  Stdlib ``logging`` is deliberately not used: its
    global mutable configuration leaks across fork-pool workers and
    pytest runs, and we need sink mirroring anyway.
    """

    def __init__(self, name: str, sink: Optional[TraceSink] = None) -> None:
        self.name = name
        self.sink = sink if sink is not None and sink.active else None

    def attach_sink(self, sink: Optional[TraceSink]) -> None:
        self.sink = sink if sink is not None and sink.active else None

    def log(self, level: str, message: str, **fields: Any) -> None:
        severity = LEVELS.get(level, LEVELS["info"])
        if severity >= _STATE["level"]:
            stream: IO[str] = _STATE["stream"] or sys.stderr
            parts = [f"[{self.name}]", message]
            parts.extend(f"{k}={v}" for k, v in fields.items())
            if level != "info":
                parts.insert(1, level.upper())
            stream.write(" ".join(parts) + "\n")
            stream.flush()
        if self.sink is not None:
            record: Dict[str, Any] = {
                "kind": "log",
                "level": level,
                "logger": self.name,
                "message": message,
            }
            record.update(fields)
            self.sink.emit(record)

    def debug(self, message: str, **fields: Any) -> None:
        self.log("debug", message, **fields)

    def info(self, message: str, **fields: Any) -> None:
        self.log("info", message, **fields)

    def warning(self, message: str, **fields: Any) -> None:
        self.log("warning", message, **fields)

    def error(self, message: str, **fields: Any) -> None:
        self.log("error", message, **fields)
