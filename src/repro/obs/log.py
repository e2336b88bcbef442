"""The ``repro`` logger hierarchy.

All human-facing diagnostics (progress, cache stats, warnings)
flow through ``logging.getLogger("repro...")`` instead of bare
``print(..., file=sys.stderr)``.  :func:`configure_logging` installs a
message-only stderr handler on the root ``repro`` logger at the level
chosen by ``--log-level`` (default ``warning``, so routine info lines
stay silent unless asked for).

The handler is torn down and recreated on every call, bound to the
*current* ``sys.stderr`` — this matters under pytest, where each test's
``capsys`` swaps the stream; a handler cached from a previous test
would write into a closed buffer.  Library code that never calls
:func:`configure_logging` still surfaces warnings through logging's
last-resort stderr handler.
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional

__all__ = ["configure_logging", "get_logger"]

ROOT_LOGGER_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def get_logger(name: str = "") -> logging.Logger:
    """``get_logger("parallel")`` -> the ``repro.parallel`` logger."""
    if name:
        return logging.getLogger(ROOT_LOGGER_NAME + "." + name)
    return logging.getLogger(ROOT_LOGGER_NAME)


def configure_logging(level: str = "warning", stream: Optional[IO[str]] = None) -> logging.Logger:
    """(Re)install a message-only handler on the ``repro`` logger."""
    logger = get_logger()
    logger.setLevel(_LEVELS.get(str(level).lower(), logging.WARNING))
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
        try:
            handler.close()
        except Exception:
            pass
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.propagate = False
    return logger
