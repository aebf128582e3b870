"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: DomainError -> 2, ResourceGuardError -> 3,
a malformed command line or parameter -> 1.
"""


class ArithdynError(Exception):
    """Base class for all library errors."""


class DomainError(ArithdynError):
    """A precondition on the mathematical inputs is violated."""


class ResourceGuardError(ArithdynError):
    """A configured size/degree/work cap would be exceeded."""


class CertificationError(DomainError):
    """A rigorous enclosure could not be certified at the requested precision.

    Callers may retry with a higher working precision.
    """
