"""Exception types shared across the toolkit."""

from __future__ import annotations


class LabelProjError(Exception):
    """Base class for all toolkit errors."""


class InvalidAnnotationError(LabelProjError):
    """An operation received a document that fails validation."""


class AlignmentError(LabelProjError):
    """Two collections that must align by id or position do not."""


class EmptyInputError(LabelProjError):
    """An operation with no defined result on empty input received one."""


class FormatError(LabelProjError):
    """A dataset's contents do not match its declared format."""


class ErrorBudgetExceeded(LabelProjError):
    """More malformed records than the configured budget allows."""


class UsageError(LabelProjError):
    """A flag asks for more than the toolkit's cap on it allows."""


class NoTokensError(LabelProjError):
    """Single-span sampling requires at least one token."""


class BackendUnreachableError(LabelProjError):
    """The remote backend could not be reached after retries."""


class BackendError(LabelProjError):
    """The remote backend answered with a terminal error."""

    def __init__(self, status: int, body: str):
        super().__init__(f"backend returned HTTP {status}: {body}")
        self.status = status
        self.body = body


class ScorerUnavailableError(LabelProjError):
    """Quality-score filtering was requested but no scorer responded."""
