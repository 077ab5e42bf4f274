"""Exception hierarchy for the storage substrate."""

from __future__ import annotations


class StorageError(Exception):
    """Base class for all storage-layer failures."""


class DocumentNotFoundError(StorageError, KeyError):
    """Raised when a document id does not exist in the store."""

    def __init__(self, doc_id: str):
        super().__init__(doc_id)
        self.doc_id = doc_id

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable.
        return f"document not found: {self.doc_id!r}"


class DuplicateDocumentError(StorageError):
    """Raised when inserting a document under an id that already exists."""

    def __init__(self, doc_id: str):
        super().__init__(f"document already exists: {doc_id!r}")
        self.doc_id = doc_id


class IndexError_(StorageError):
    """Raised for secondary-index misuse (unknown index, duplicate name)."""
