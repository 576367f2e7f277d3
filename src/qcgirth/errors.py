"""Shared exception types."""

from __future__ import annotations


class BudgetError(RuntimeError):
    """A computation would exceed its configured resource budget."""


class SearchBudgetError(BudgetError):
    """Seed search exhausted its budget without a certified result."""
