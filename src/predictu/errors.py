"""Exception types shared across the package.

The command line tool maps ValidationError to exit code 2 and
NumericError to exit code 3.
"""

__all__ = ["ValidationError", "NumericError"]


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class NumericError(ArithmeticError):
    """A quantity is undefined or unreachable for the given values."""
