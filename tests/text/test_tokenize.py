"""Unit tests for tokenization."""

from repro.text.tokenize import DEFAULT_STOPWORDS, tokenize


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("Efficient RDF Processing") == [
            "efficient",
            "rdf",
            "processing",
        ]

    def test_stopwords_removed(self):
        assert tokenize("the internet of things") == ["internet", "things"]

    def test_stopwords_disabled(self):
        assert tokenize("internet of things", stopwords=None) == [
            "internet",
            "of",
            "things",
        ]

    def test_min_length(self):
        assert tokenize("a bb ccc", stopwords=None, min_length=3) == ["ccc"]

    def test_punctuation_ignored(self):
        assert tokenize("graphs, trees; forests!") == ["graphs", "trees", "forests"]

    def test_empty(self):
        assert tokenize("") == []

    def test_numbers_kept(self):
        assert "5g" in tokenize("5g networks")


class TestStopwords:
    def test_is_frozenset(self):
        assert isinstance(DEFAULT_STOPWORDS, frozenset)

    def test_contains_core_function_words(self):
        assert {"the", "of", "and"} <= DEFAULT_STOPWORDS

    def test_does_not_contain_content_words(self):
        assert "data" not in DEFAULT_STOPWORDS
