"""Exceptions shared across the package."""


class ResourceLimitError(RuntimeError):
    """A brute-force enumeration or tensor allocation would exceed the
    configured resource guard.  Raised instead of hanging or swapping;
    the CLI maps it to exit code 3."""

