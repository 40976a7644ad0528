"""MiniLM — the pre-trained language model substitute for BERT/RoBERTa.

The paper uses BERT/RoBERTa for three supporting roles (never as the
matching model itself):

1. initializing soft prompts from label token embeddings (§IV-C),
2. extracting vertex property features A in PCP mini-batch generation
   (Alg. 2, line 2), and
3. initializing vertex representations h(v) for Eq. 6.

All three only need *static token embeddings with attribute-level
semantics*.  MiniLM therefore pre-trains word vectors by factorizing a
positive-PMI co-occurrence matrix of a synthetic corpus (the classic
count-based stand-in for masked-LM pre-training), exposing the same
``embed_tokens`` / ``embed_text`` API a HuggingFace encoder would.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..nn.init import SeedLike, rng_from
from .tokenizer import Vocabulary, WordTokenizer

__all__ = ["MiniLM"]


class MiniLM:
    """Static word embeddings trained by PPMI + truncated SVD.

    Parameters
    ----------
    vocab:
        Shared vocabulary (special tokens get zero vectors).
    dim:
        Embedding dimensionality.
    window:
        Symmetric co-occurrence window width.
    """

    def __init__(self, vocab: Vocabulary, dim: int = 48, window: int = 4) -> None:
        self.vocab = vocab
        self.dim = dim
        self.window = window
        self._tokenizer = WordTokenizer(vocab, max_len=512)
        self.embeddings: Optional[np.ndarray] = None

    # -- pre-training -------------------------------------------------------
    def _sentence_ids(self, sentence: str) -> np.ndarray:
        return np.asarray([self.vocab.id_of(w)
                           for w in self._tokenizer.tokenize(sentence)],
                          dtype=np.int64)

    def _cooccurrence(self, sentences: Iterable[str]) -> np.ndarray:
        """Windowed co-occurrence counts via ``np.add.at`` scatter.

        For every offset ``k`` in ``1..window`` the (center, context)
        index pairs of *all* sentences are concatenated and scattered in
        one call per direction.  Unit increments into float64 counts are
        exact integers, so the matrix is identical to the per-token loop
        of ``tests/oracles/minilm.py`` regardless of accumulation order.
        """
        vocab_size = len(self.vocab)
        counts = np.zeros((vocab_size, vocab_size), dtype=np.float64)
        ids_list = [self._sentence_ids(s) for s in sentences]
        for k in range(1, self.window + 1):
            lefts = [ids[:-k] for ids in ids_list if len(ids) > k]
            rights = [ids[k:] for ids in ids_list if len(ids) > k]
            if not lefts:
                continue
            left = np.concatenate(lefts)
            right = np.concatenate(rights)
            np.add.at(counts, (left, right), 1.0)
            np.add.at(counts, (right, left), 1.0)
        return counts

    def pretrain(self, sentences: Iterable[str], seed: SeedLike = 0) -> "MiniLM":
        """Fit embeddings on ``sentences``; returns self for chaining."""
        vocab_size = len(self.vocab)
        counts = self._cooccurrence(list(sentences))
        total = counts.sum()
        if total == 0:
            raise ValueError("empty corpus: no co-occurrences observed")
        # Positive pointwise mutual information.
        row = counts.sum(axis=1, keepdims=True)
        col = counts.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            pmi = np.log(counts * total / (row @ col))
        pmi[~np.isfinite(pmi)] = 0.0
        pmi = np.maximum(pmi, 0.0)
        # Truncated SVD -> dense embeddings.
        u, s, _ = np.linalg.svd(pmi, full_matrices=False)
        k = min(self.dim, len(s))
        emb = (u[:, :k] * np.sqrt(s[:k])).astype(np.float32)
        if k < self.dim:
            emb = np.pad(emb, ((0, 0), (0, self.dim - k)))
        # Zero the special tokens; unseen words get tiny deterministic noise
        # so they are distinguishable but carry no semantics.
        seen = counts.sum(axis=1) > 0
        rng = rng_from(seed)
        noise = (rng.standard_normal((vocab_size, self.dim)) * 1e-3).astype(np.float32)
        emb[~seen] = noise[~seen]
        for special in range(5):  # ids 0-4 are [PAD],[CLS],[SEP],[MASK],[UNK]
            emb[special] = 0.0
        self.embeddings = emb
        return self

    def _require_trained(self) -> np.ndarray:
        if self.embeddings is None:
            raise RuntimeError("MiniLM.pretrain must be called first")
        return self.embeddings

    # -- inference -------------------------------------------------------------
    def embed_tokens(self, text: str) -> np.ndarray:
        """Per-token embeddings, shape ``(num_tokens, dim)``."""
        emb = self._require_trained()
        ids = [self.vocab.id_of(w) for w in self._tokenizer.tokenize(text)]
        if not ids:
            return np.zeros((0, self.dim), dtype=np.float32)
        return emb[np.asarray(ids)]

    def embed_text(self, text: str) -> np.ndarray:
        """Mean-pooled sentence embedding, shape ``(dim,)``."""
        tokens = self.embed_tokens(text)
        if len(tokens) == 0:
            return np.zeros(self.dim, dtype=np.float32)
        return tokens.mean(axis=0)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Batch of mean-pooled embeddings, shape ``(len(texts), dim)``.

        Vectorized: one padded id matrix, one embedding gather, one
        masked mean.  Padding positions gather the all-zero ``[PAD]``
        row and numpy's axis-1 reduction is sequential, so appending
        exact zeros leaves every sum bit-identical to the per-text
        :meth:`embed_text` reference.

        The remaining wall time is the regex word scan, which the
        reference pays identically — so the measured speedup of this
        path is pinned by tokenization, not by the numpy math it
        replaced (see ``bench_hotpaths``).
        """
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        emb = self._require_trained()
        tokenize = self._tokenizer.tokenize
        ids_of = self.vocab.ids_of
        ids_list = [ids_of(tokenize(t)) for t in texts]
        lengths = np.asarray([len(ids) for ids in ids_list], dtype=np.int64)
        longest = int(lengths.max())
        if longest == 0:
            return np.zeros((len(texts), self.dim), dtype=np.float32)
        pad_id = self.vocab.pad_id
        padded = np.full((len(texts), longest), pad_id, dtype=np.int64)
        total = int(lengths.sum())
        flat = np.fromiter((i for ids in ids_list for i in ids),
                           dtype=np.int64, count=total)
        starts = np.cumsum(lengths) - lengths
        rows = np.repeat(np.arange(len(texts)), lengths)
        cols = np.arange(total) - np.repeat(starts, lengths)
        padded[rows, cols] = flat
        gathered = emb[padded]  # (B, L, dim); [PAD] rows are exact zeros
        if emb[pad_id].any():  # hand-loaded embeddings may break that
            gathered[padded == pad_id] = 0.0
        sums = gathered.sum(axis=1)
        counts = np.maximum(lengths, 1).astype(np.float32)
        return (sums / counts[:, None]).astype(np.float32, copy=False)

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity between two texts' embeddings."""
        va, vb = self.embed_text(a), self.embed_text(b)
        denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
        return float(va @ vb / denom) if denom > 0 else 0.0
