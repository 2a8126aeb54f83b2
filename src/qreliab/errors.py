"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class QReliabError(Exception):
    """Base class for all toolkit errors."""


class QuerySyntaxError(QReliabError):
    """Malformed query text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SelfJoinError(QReliabError):
    def __init__(self, relation: str):
        super().__init__(f"relation {relation!r} occurs in two distinct atoms")
        self.relation = relation


class ArityError(QReliabError):
    pass


class UnknownVariableError(QReliabError):
    pass


class HierarchicalQueryError(QReliabError):
    """Raised when an operation requires a non-hierarchical query."""


class NonHierarchicalQueryError(QReliabError):
    """Raised when an operation requires a hierarchical query."""


class CapExceededError(QReliabError):
    """Enumeration would exceed the configured width cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"enumeration width {required} exceeds cap {cap}")
        self.required = required
        self.cap = cap


class UsageError(QReliabError):
    """A setting outside the arguments, such as an environment variable, is
    invalid; the command line reports it as a usage error (exit status 2)."""


class ProbabilityError(QReliabError):
    pass


class InstanceFormatError(QReliabError):
    pass


class GraphFormatError(QReliabError):
    pass


class SchemaMismatchError(QReliabError):
    pass


class InvalidProfileError(QReliabError):
    pass


class DuplicateNodeError(QReliabError):
    """Two Vandermonde nodes coincide: ``dual_solve`` raises it when its
    nodes collide modulo its prime.  (``recover_counts`` skips a prime
    where the nodes collide before it solves, so it never sees this.)
    """
