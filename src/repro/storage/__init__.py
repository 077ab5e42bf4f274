"""Storage substrate: the database layer behind the simulated sources.

Each scholarly service in :mod:`repro.scholarly` (DBLP, Google Scholar,
Publons, ...) is backed by the same storage primitives a real service
would run on:

- :class:`~repro.storage.documents.DocumentStore` — a schemaless document
  store with unique ids and hash-based secondary indexes;
- :class:`~repro.storage.inverted.InvertedIndex` — a weighted inverted
  index used for interest-keyword → scholar retrieval (the heart of the
  candidate-reviewer search).

Both are write-once: a service fills them when it is built and only
reads them afterwards, and re-indexing builds new services
(:meth:`repro.scholarly.registry.ScholarlyHub.refresh_services`), so
neither has an update, a delete or a durable log.
"""

from repro.storage.documents import Document, DocumentStore
from repro.storage.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    IndexError_,
    StorageError,
)
from repro.storage.inverted import InvertedIndex, Posting

__all__ = [
    "Document",
    "DocumentNotFoundError",
    "DocumentStore",
    "DuplicateDocumentError",
    "IndexError_",
    "InvertedIndex",
    "Posting",
    "StorageError",
]
