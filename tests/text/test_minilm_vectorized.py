"""Golden-equivalence tests for MiniLM's vectorized paths: the batched
``embed_texts`` gather/mean and the ``np.add.at`` co-occurrence scatter
must match their naive references in ``tests/oracles/minilm.py``
exactly (``atol=0``)."""

import numpy as np
import pytest

from tests.oracles.minilm import cooccurrence_reference, embed_texts_reference


@pytest.fixture(scope="module")
def minilm(tiny_bundle):
    return tiny_bundle.minilm


SAMPLE_TEXTS = [
    "a photo of a velkan tern",
    "wing color grey",
    "",
    "beak shape hooked and tail pattern striped with a very long "
    "redundant description of the bird in question",
    "crest",
]


class TestEmbedTexts:
    def test_matches_reference_exactly(self, minilm):
        np.testing.assert_array_equal(minilm.embed_texts(SAMPLE_TEXTS),
                                      embed_texts_reference(minilm, SAMPLE_TEXTS))

    def test_matches_reference_on_vocabulary_phrases(self, minilm):
        words = [w for w in minilm.vocab.tokens()[5:40]]
        texts = [" ".join(words[i:i + 1 + i % 7]) for i in range(len(words))]
        np.testing.assert_array_equal(minilm.embed_texts(texts),
                                      embed_texts_reference(minilm, texts))

    def test_empty_batch(self, minilm):
        assert minilm.embed_texts([]).shape == (0, minilm.dim)

    def test_all_empty_texts(self, minilm):
        out = minilm.embed_texts(["", ""])
        np.testing.assert_array_equal(out, np.zeros((2, minilm.dim),
                                                    dtype=np.float32))

    def test_single_matches_embed_text(self, minilm):
        single = minilm.embed_texts(["wing color grey"])[0]
        np.testing.assert_array_equal(single,
                                      minilm.embed_text("wing color grey"))


class TestCooccurrenceScatter:
    def test_matches_reference_exactly(self, minilm):
        sentences = [
            "the velkan tern has grey wings",
            "grey wings and a hooked beak",
            "a",
            "",
            "one two three four five six seven eight nine ten eleven",
        ]
        np.testing.assert_array_equal(
            minilm._cooccurrence(sentences),
            cooccurrence_reference(minilm, sentences))

    def test_matches_reference_on_corpus_slice(self, tiny_bundle, minilm):
        from repro.text.corpus import build_text_corpus
        corpus = build_text_corpus(tiny_bundle.universe, seed=7)[:50]
        np.testing.assert_array_equal(minilm._cooccurrence(corpus),
                                      cooccurrence_reference(minilm, corpus))
