"""Persistence of tuned matchers.

A fitted :class:`~repro.core.matcher.CrossEM` owns three kinds of tuned
state: its private CLIP copy, the soft-prompt module (prompt table +
fusion weights) when the soft prompt is in use, and the discrete prompt
strings otherwise.  ``save_matcher`` serializes all of it into one
``.npz`` archive; ``load_matcher`` restores it into a freshly
constructed matcher over the same bundle and dataset, reproducing the
saved matcher's scores exactly.

Both directions are hardened: saves are atomic (a crash mid-write never
leaves a truncated archive at the target path) and loads validate the
archive's metadata *before* paying for the prompt-structure rebuild,
close the archive handle, and fail loudly — with
:class:`~repro.iosafe.CorruptArtifactError` for byte-level damage and
``KeyError`` for archives missing tuned state — rather than silently
keeping freshly-initialized weights.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..clip.zoo import PretrainedBundle
from ..datalake.graph import Graph
from ..iosafe import CorruptArtifactError, atomic_write_bytes, retry_io
from .matcher import CrossEM

__all__ = ["save_matcher", "load_matcher"]


def save_matcher(matcher: CrossEM, path: Union[str, Path]) -> Path:
    """Serialize a fitted matcher's tuned state to ``path`` (.npz).

    Returns the path actually written: a missing ``.npz`` suffix is
    appended explicitly (``np.savez`` used to do this silently, so
    ``load_matcher(path)`` could fail to find what ``save_matcher(path)``
    wrote).  The write is atomic — write-to-temp + fsync + rename — so a
    crash never leaves a partial archive at the final path.
    """
    if matcher.graph is None:
        raise RuntimeError("only fitted matchers can be saved")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    config = matcher.config
    meta = {
        "kind": matcher._checkpoint_kind,
        "prompt": config.prompt,
        "vertex_ids": list(matcher.vertex_ids),
    }
    state = {f"clip.{k}": v for k, v in matcher.clip.state_dict().items()}
    if matcher.soft_prompts is not None:
        for key, value in matcher.soft_prompts.state_dict().items():
            if key.startswith("clip."):
                continue  # the clip reference is saved above
            state[f"soft.{key}"] = value
    state["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **state)
    return retry_io(lambda: atomic_write_bytes(path, buffer.getvalue()),
                    name="matcher.save")


def _read_archive(path: Path) -> Dict[str, np.ndarray]:
    """Fully materialize the archive (closing the file handle) and
    convert byte-level damage into one typed error."""
    if not path.exists():
        raise FileNotFoundError(f"no matcher archive at {path}")
    try:
        with np.load(path) as archive:
            return {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, ValueError, EOFError, KeyError) as exc:
        raise CorruptArtifactError(
            f"matcher archive {path} is corrupt: {exc}") from exc


def load_matcher(path: Union[str, Path], bundle: PretrainedBundle,
                 graph: Graph, images, matcher: CrossEM) -> CrossEM:
    """Restore tuned state into ``matcher`` (a fresh, configured matcher
    over the same bundle/graph/images).

    The archive's metadata is validated first — prompt kind and matcher
    class must match *before* the expensive ``epochs=0`` fit rebuilds
    the prompt structures.  The matcher's weights are then overwritten
    from the archive; a soft-prompt archive missing any tuned key raises
    ``KeyError`` instead of silently keeping freshly-initialized
    weights.  Returns the same matcher, ready for
    :meth:`~repro.core.matcher.CrossEM.score`.
    """
    arrays = retry_io(lambda: _read_archive(Path(path)), name="matcher.load")
    try:
        meta = json.loads(bytes(arrays["meta"].tobytes()).decode())
    except KeyError:
        raise CorruptArtifactError(
            f"matcher archive {path} has no meta record")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptArtifactError(
            f"matcher archive {path} has an unreadable meta record") from exc
    if meta["prompt"] != matcher.config.prompt:
        raise ValueError(
            f"archive was saved with prompt={meta['prompt']!r}, matcher is "
            f"configured with {matcher.config.prompt!r}")
    if meta.get("kind", matcher._checkpoint_kind) != matcher._checkpoint_kind:
        raise ValueError(
            f"archive was saved by a {meta['kind']!r} matcher, refusing to "
            f"restore into {matcher._checkpoint_kind!r}")
    saved_epochs = matcher.config.epochs
    matcher.config.epochs = 0
    try:
        matcher.fit(graph, images, meta["vertex_ids"])
    finally:
        matcher.config.epochs = saved_epochs
    matcher.clip.load_state_dict(
        {k[len("clip."):]: v for k, v in arrays.items()
         if k.startswith("clip.")})
    if matcher.soft_prompts is not None:
        soft_state = matcher.soft_prompts.state_dict()
        missing = [key for key in soft_state
                   if not key.startswith("clip.")
                   and f"soft.{key}" not in arrays]
        if missing:
            raise KeyError(
                f"matcher archive {path} lacks tuned soft-prompt state for "
                f"{sorted(missing)}; refusing to serve freshly-initialized "
                f"weights")
        for key in list(soft_state):
            archived = f"soft.{key}"
            if archived in arrays:
                soft_state[key] = arrays[archived]
        matcher.soft_prompts.load_state_dict(soft_state)
    # the frozen text matrix is valid from the end of a fit to the next
    # load of tuned state — this one
    matcher._text_embeds = None
    return matcher
