"""Exception hierarchy of the recommendation framework."""

from __future__ import annotations


class MinaretError(Exception):
    """Base class for all framework-level failures."""


class IdentityVerificationError(MinaretError):
    """An author identity could not be established at all.

    Raised when a manuscript author matches *no* profile on any source —
    the pipeline cannot do COI screening for an author it cannot find,
    and silently proceeding would un-fairly pass candidates.
    """

    def __init__(self, author_name: str):
        super().__init__(
            f"no scholarly profile found for manuscript author {author_name!r}"
        )
        self.author_name = author_name


class AmbiguousIdentityError(MinaretError):
    """An author name matched several profiles and no resolver decided.

    Mirrors the paper's §2.1: "In case of multiple matches, the user has
    to manually identify the correct profiles" — raised by the strict
    resolver when that manual decision is required but unavailable.
    """

    def __init__(self, author_name: str, match_count: int):
        super().__init__(
            f"{match_count} profiles match author {author_name!r}; "
            "manual disambiguation required"
        )
        self.author_name = author_name
        self.match_count = match_count


class SourceUnavailableError(MinaretError):
    """An anchor source stayed down through every retry.

    Secondary sources degrade silently (their fields are simply
    missing), but some lookups have no fallback — DBLP is the identity
    anchor, and without it an author can be neither verified nor
    fairly rejected.  This wraps the transport-level failure in the
    framework's taxonomy so batch callers can report it per paper
    instead of dying on an untyped crawler exception.
    """

    def __init__(self, host: str, detail: str):
        super().__init__(f"source {host} unavailable: {detail}")
        self.host = host
        self.detail = detail
