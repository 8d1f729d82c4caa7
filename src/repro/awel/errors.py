"""AWEL exception types."""

from __future__ import annotations


class AwelError(Exception):
    """Base error for workflow construction and execution."""


class CycleError(AwelError):
    """The DAG contains a cycle."""
