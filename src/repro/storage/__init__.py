"""Storage substrate: the database layer behind the simulated sources.

Each scholarly service in :mod:`repro.scholarly` (DBLP, Google Scholar,
Publons, ...) is backed by the same storage primitives a real service
would run on:

- :class:`~repro.storage.documents.DocumentStore` — a schemaless document
  store with unique ids, optimistic versioning and hash-based secondary
  indexes;
- :class:`~repro.storage.inverted.InvertedIndex` — a weighted inverted
  index used for interest-keyword → scholar retrieval (the heart of the
  candidate-reviewer search).

:class:`~repro.storage.persistence.JournaledStore` adds a write-ahead
journal and snapshots to a document store.  EXP-STORAGE measures it; no
service runs on it.
"""

from repro.storage.documents import Document, DocumentStore
from repro.storage.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    IndexError_,
    StorageError,
    VersionConflictError,
)
from repro.storage.inverted import InvertedIndex, Posting
from repro.storage.persistence import JournaledStore, PersistentStoreError

__all__ = [
    "Document",
    "DocumentNotFoundError",
    "DocumentStore",
    "DuplicateDocumentError",
    "IndexError_",
    "InvertedIndex",
    "JournaledStore",
    "PersistentStoreError",
    "Posting",
    "StorageError",
    "VersionConflictError",
]
