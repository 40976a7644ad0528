"""Golden reference for :class:`repro.core.matcher.CrossEM`'s cached
discrete-prompt embeddings.

``encode_vertices_reference`` is the uncached path: it re-tokenizes and
re-encodes every vertex's hard prompt on each call.  No serving or
training path calls it; it is the oracle the cache must equal, and the
reference side of ``bench_hotpaths.py``'s ``hard_prompt_epoch`` row.
"""

from __future__ import annotations

from typing import Sequence

from repro import nn
from repro.core.matcher import CrossEM

__all__ = ["encode_vertices_reference"]


def encode_vertices_reference(matcher: CrossEM,
                              vertex_ids: Sequence[int]) -> nn.Tensor:
    """Prompted text embeddings for ``vertex_ids``, encoded afresh."""
    texts = [matcher._hard_prompts[v] for v in vertex_ids]
    token_ids = matcher.tokenizer.encode_batch(texts)
    mask = matcher.tokenizer.attention_mask(token_ids)
    return matcher.clip.encode_text(token_ids, mask)
