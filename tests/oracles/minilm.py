"""Golden references for :class:`repro.text.minilm.MiniLM`'s batched
kernels.

``cooccurrence_reference`` is the naive per-token window loop that
``MiniLM._cooccurrence`` replaced with one scatter per window offset;
``embed_texts_reference`` is the per-text loop ``embed_texts``
replaced with one padded gather.  Kept outside ``src/`` as the oracles
the batched forms must equal, ``np.array_equal``, and as the reference
side of ``bench_hotpaths.py``'s ``pretrain_cooccurrence`` and
``embed_texts`` rows.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.text.minilm import MiniLM

__all__ = ["cooccurrence_reference", "embed_texts_reference"]


def cooccurrence_reference(minilm: MiniLM,
                           sentences: Iterable[str]) -> np.ndarray:
    """Symmetric window co-occurrence counts, one token at a time."""
    vocab_size = len(minilm.vocab)
    counts = np.zeros((vocab_size, vocab_size), dtype=np.float64)
    for sentence in sentences:
        ids = [minilm.vocab.id_of(w)
               for w in minilm._tokenizer.tokenize(sentence)]
        for i, center in enumerate(ids):
            lo = max(0, i - minilm.window)
            hi = min(len(ids), i + minilm.window + 1)
            for j in range(lo, hi):
                if j != i:
                    counts[center, ids[j]] += 1.0
    return counts


def embed_texts_reference(minilm: MiniLM,
                          texts: Sequence[str]) -> np.ndarray:
    """``(len(texts), dim)`` mean-pooled embeddings, one text at a time."""
    return np.stack([minilm.embed_text(t) for t in texts]) if texts else \
        np.zeros((0, minilm.dim), dtype=np.float32)
