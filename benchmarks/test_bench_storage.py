"""Storage micro-benchmarks: the substrate under the services.

Not a paper figure — infrastructure characterization: how fast the
document store indexes and serves, what a read that returns a payload
costs, and how fast the inverted index answers a ranked query.  These
numbers bound how large a simulated scholarly world stays interactive.
"""

from __future__ import annotations

import pytest

from repro.storage.documents import DocumentStore
from repro.storage.inverted import InvertedIndex

DOCS = 2000


def seed_payloads(count=DOCS):
    return [
        {
            "name": f"scholar-{i}",
            "country": f"country-{i % 20}",
            "interests": [f"topic-{i % 37}", f"topic-{(i * 7) % 37}"],
            "h_index": i % 60,
        }
        for i in range(count)
    ]


def profile_payload(i):
    """A Scholar-profile-sized document: 30 publication dicts."""
    return {
        "user": f"sch_{i}",
        "name": f"Scholar {i % 100}",
        "normalized_name": f"scholar {i % 100}",
        "affiliation": f"University {i % 40}",
        "country": f"country-{i % 20}",
        "interests": [f"topic-{i % 37}", f"topic-{(i * 7) % 37}"],
        "citations": 40 * i,
        "h_index": i % 60,
        "i10_index": i % 30,
        "publications": [
            {
                "id": f"pub-{i}-{j}",
                "title": f"On topic {j} and its neighbours, part {i}",
                "year": 1990 + j,
                "citations": (i * j) % 200,
                "keywords": [f"topic-{j % 37}", f"topic-{(j * 5) % 37}"],
            }
            for j in range(30)
        ],
    }


def test_bench_store_insert_with_indexes(benchmark):
    payloads = seed_payloads()

    def build():
        store = DocumentStore()
        store.create_index("country", lambda d: d["country"])
        store.create_index("interests", lambda d: d["interests"])
        for payload in payloads:
            store.insert(payload)
        return store

    store = benchmark(build)
    assert len(store) == DOCS
    print(f"\nstorage: {DOCS} inserts with 2 secondary indexes per round")


def test_bench_index_lookup(benchmark):
    store = DocumentStore()
    store.create_index("country", lambda d: d["country"])
    for payload in seed_payloads():
        store.insert(payload)

    result = benchmark(store.lookup_ids, "country", "country-7")
    assert len(result) == DOCS // 20


def test_bench_store_get(benchmark):
    store = DocumentStore()
    payload = profile_payload(7)
    store.insert(payload, doc_id="profile")

    document = benchmark(store.get, "profile")
    assert document.payload == payload


def test_bench_store_lookup(benchmark):
    payloads = [profile_payload(i) for i in range(200)]
    store = DocumentStore()
    store.create_index("name", lambda d: d["normalized_name"])
    for i, payload in enumerate(payloads):
        store.insert(payload, doc_id=f"p{i:03d}")

    documents = benchmark(store.lookup, "name", "scholar 7")
    assert [d.payload for d in documents] == [payloads[7], payloads[107]]


def test_bench_inverted_search(benchmark):
    index = InvertedIndex()
    for i, payload in enumerate(seed_payloads()):
        index.add(f"d{i}", {t: 1.0 for t in payload["interests"]})

    result = benchmark(index.search, ["topic-5", "topic-11"], limit=50)
    assert result

