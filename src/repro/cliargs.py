"""Argument types shared by the command-line entry points.

A bad value fails at parse time -- argparse prints the usage line and
the reason, and exits 2 -- before any work starts, instead of surfacing
as a traceback mid-run.
"""

from __future__ import annotations

import argparse
import math

__all__ = ["positive_int", "scale", "seconds", "size_mib"]


def positive_int(text: str) -> int:
    """A count or problem size: an integer greater than zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: not an integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: must be an integer >= 1"
        )
    return value


def _positive_number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {what} {text!r}: not a number"
        ) from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"invalid {what} {text!r}: must be a finite number > 0"
        )
    return value


def scale(text: str) -> float:
    """A workload scale factor: a finite number greater than zero."""
    return _positive_number(text, "scale")


def seconds(text: str) -> float:
    """A duration in seconds: a finite number greater than zero."""
    return _positive_number(text, "duration")


def size_mib(text: str) -> float:
    """A size bound in MiB: a finite number >= 0 whose byte count is
    finite too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}: not a number"
        ) from None
    if not (value >= 0 and math.isfinite(value * (1 << 20))):
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}: must be a finite number >= 0"
        )
    return value
