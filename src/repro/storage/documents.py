"""A schemaless in-memory document store with secondary indexes.

The store keeps JSON-like dict documents under string ids and maintains
hash-based secondary indexes over arbitrary extractor functions.  All
the simulated scholarly services are built on it.  A store is written
once, when its service is built: it has no update or delete, and
re-indexing builds a new service and so a new store.

Design notes
------------
- A payload is encoded once, with :mod:`marshal`, when it is written,
  and the store keeps only the bytes.  Every read decodes a fresh object
  tree, so callers can never mutate stored state by aliasing — the same
  isolation property a networked document database provides — and a
  read costs one decode in C rather than a deep copy.
- Payloads must be JSON-like: dicts, lists, tuples, strings, ints,
  floats, bools and ``None``, nested, each of exactly that type, so
  marshal round-trips every value exactly.  Anything else — a custom
  object, a dict or str subclass, an ``Enum`` member, a numpy scalar —
  raises ``TypeError`` at write time.
- Inserts are all-or-nothing: an insert encodes its payload and
  extracts every index's keys before it changes any state, so a rejected
  payload or a raising extractor leaves the store exactly as it was.
- Secondary indexes map an extracted key to the *set* of document ids;
  extractors may return a single key, an iterable of keys (multi-valued
  index, e.g. one entry per interest keyword) or ``None`` (unindexed).
"""

from __future__ import annotations

import itertools
import marshal
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass

from repro.storage.errors import DocumentNotFoundError, DuplicateDocumentError, IndexError_

IndexKey = Hashable
Extractor = Callable[[dict], object]

_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})
_CONTAINER_TYPES = frozenset({dict, list, tuple})


def _encode(payload: dict) -> bytes:
    """Marshal a JSON-like payload, raising ``TypeError`` for anything else.

    The types are checked first because marshal accepts more than the
    contract: it stores sets, bytes and complex numbers, and writes any
    buffer object, numpy scalars included, as ``bytes``.
    """
    stack: list = [payload]
    seen: set[int] = set()
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind in _LEAF_TYPES:
            continue
        if kind not in _CONTAINER_TYPES:
            raise TypeError(f"not a JSON-like document value: {kind.__qualname__}")
        if id(value) in seen:  # shared or self-containing; marshal keeps both
            continue
        seen.add(id(value))
        if kind is dict:
            stack.extend(value)
            stack.extend(value.values())
        else:
            stack.extend(value)
    try:
        return marshal.dumps(payload)
    except ValueError as error:  # nested deeper than marshal allows
        raise TypeError(f"cannot encode document: {error}") from None


def _keys(extracted: object) -> list[IndexKey]:
    """An extractor's result as a list of distinct, hashable index keys."""
    if extracted is None:
        return []
    if isinstance(extracted, (str, bytes)) or not isinstance(extracted, Iterable):
        extracted = (extracted,)
    # dict.fromkeys raises on an unhashable key before any index changes.
    return list(dict.fromkeys(extracted))


@dataclass(frozen=True)
class Document:
    """A stored document snapshot: id and payload."""

    doc_id: str
    payload: dict


class DocumentStore:
    """Write-once in-memory document store with secondary indexes.

    Example
    -------
    >>> store = DocumentStore(name="scholars")
    >>> store.create_index("by_country", lambda d: d.get("country"))
    >>> doc = store.insert({"name": "Ada", "country": "UK"})
    >>> [d.payload["name"] for d in store.lookup("by_country", "UK")]
    ['Ada']
    """

    def __init__(self, name: str = "store"):
        self.name = name
        self._documents: dict[str, bytes] = {}
        self._indexes: dict[str, dict[IndexKey, set[str]]] = {}
        self._extractors: dict[str, Extractor] = {}
        self._id_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def insert(self, payload: dict, doc_id: str | None = None) -> Document:
        """Insert ``payload`` and return the stored :class:`Document`.

        A fresh id of the form ``"<store-name>:<n>"`` is minted when
        ``doc_id`` is not given.  Raises
        :class:`~repro.storage.errors.DuplicateDocumentError` on id reuse.
        """
        blob = _encode(payload)
        entries = [
            (self._indexes[index_name], _keys(extractor(payload)))
            for index_name, extractor in self._extractors.items()
        ]
        if doc_id is None:
            doc_id = f"{self.name}:{next(self._id_counter)}"
        if doc_id in self._documents:
            raise DuplicateDocumentError(doc_id)
        self._documents[doc_id] = blob
        for index, keys in entries:
            for key in keys:
                index.setdefault(key, set()).add(doc_id)
        return Document(doc_id=doc_id, payload=marshal.loads(blob))

    def get(self, doc_id: str) -> Document:
        """Fetch a document snapshot by id or raise ``DocumentNotFoundError``."""
        try:
            blob = self._documents[doc_id]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None
        return Document(doc_id=doc_id, payload=marshal.loads(blob))

    def get_or_none(self, doc_id: str) -> Document | None:
        """Fetch a document, returning ``None`` when absent."""
        if doc_id not in self._documents:
            return None
        return self.get(doc_id)

    # ------------------------------------------------------------------
    # Secondary indexes
    # ------------------------------------------------------------------

    def create_index(self, index_name: str, extractor: Extractor) -> None:
        """Register a secondary index and backfill it over existing docs.

        ``extractor(payload)`` may return a hashable key, an iterable of
        hashable keys, or ``None`` to leave the document out of the index.
        """
        if index_name in self._indexes:
            raise IndexError_(f"index already exists: {index_name!r}")
        index: dict[IndexKey, set[str]] = {}
        for doc_id, blob in self._documents.items():
            for key in _keys(extractor(marshal.loads(blob))):
                index.setdefault(key, set()).add(doc_id)
        self._indexes[index_name] = index
        self._extractors[index_name] = extractor

    def lookup(self, index_name: str, key: IndexKey) -> list[Document]:
        """Fetch all documents whose indexed key equals ``key``."""
        return [self.get(doc_id) for doc_id in self.lookup_ids(index_name, key)]

    def lookup_ids(self, index_name: str, key: IndexKey) -> list[str]:
        """Like :meth:`lookup` but returns only ids (cheaper)."""
        if index_name not in self._indexes:
            raise IndexError_(f"no such index: {index_name!r}")
        return sorted(self._indexes[index_name].get(key, set()))
