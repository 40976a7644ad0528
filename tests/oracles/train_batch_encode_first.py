"""Golden reference for the X_p-first ``CrossEM._train_batch``.

``train_batch_encode_first`` is ``_train_batch`` as it shipped while
every batch ran prompt generation and both encoders *before* testing
whether its positive set X_p was empty — verbatim, so the forward of an
empty batch is paid and thrown away.  It is kept, outside ``src/``, as
the oracle the skipping ``_train_batch`` is tested against: an empty
batch took no optimizer step then and takes none now, so weights,
losses, optimizer state, RNG stream and checkpoints of a ``fit`` must
be bit-identical under either (``tests/core/test_train_batch_skip.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import nn

__all__ = ["train_batch_encode_first"]


def train_batch_encode_first(self, optimizer: nn.AdamW,
                             vertex_chunk: List[int],
                             image_chunk: List[int]) -> float:
    # Algorithm 1 lines 5-9: every batch runs prompt generation and
    # both encoders.  The positive set X_p keeps only vertices whose
    # current pseudo-positive image sits in this batch; the rest of
    # the batch acts as negatives.  A batch with empty X_p still
    # pays its forward cost (this is exactly the inefficiency on
    # large data that motivates CrossEM+'s mini-batch generation).
    optimizer.zero_grad()
    text_embeds = self.encode_vertices(vertex_chunk)
    image_embeds = self._encode_images(image_chunk)
    keep_rows: List[int] = []
    positives: List[int] = []
    column_of = {image: column for column, image in enumerate(image_chunk)}
    for row, vertex in enumerate(vertex_chunk):
        pseudo = self._pseudo_labels.get(vertex)
        if pseudo is not None and pseudo in column_of:
            keep_rows.append(row)
            positives.append(column_of[pseudo])
    if not keep_rows:
        return float("nan")
    loss = self._batch_loss(text_embeds[np.asarray(keep_rows)],
                            image_embeds,
                            [vertex_chunk[r] for r in keep_rows],
                            np.asarray(positives))
    if loss is None:
        return float("nan")
    loss.backward()
    nn.clip_grad_norm(optimizer.params, 5.0)
    optimizer.step()
    return loss.item()
