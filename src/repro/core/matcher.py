"""CrossEM — the prompt-tuning matching framework (Algorithm 1).

Given the unified graph G and image repository I, CrossEM prompt-tunes
the pre-trained MiniCLIP text tower (the image tower and temperature
stay frozen, §II-C) with the batch contrastive objective of Eqs. 2-3,
using one of three prompt generators (§III).  Training is unsupervised:
mini-batches tile the full |V| x |I| candidate cross product and
positives are self-labeled from current similarities — the quadratic
cost that motivates CrossEM+ (§IV).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .. import nn
from ..clip.zoo import PretrainedBundle
from ..datalake.aggregate import GNNAggregator, GraphSageAggregator
from ..datalake.graph import Graph
from ..nn.init import rng_from
from ..obs import get_logger, registry, span
from ..obs.trace import add_trace_event, trace_span
from ..vision.image import SyntheticImage
from ..vision.pipeline import chunked_encode
from .checkpoint import (CheckpointManager, CheckpointMismatchError,
                         read_checkpoint)
from .losses import batch_contrastive_loss
from .metrics import EfficiencyReport, RankingResult, evaluate_ranking
from .prompts import HardPromptGenerator, SoftPromptModule, baseline_prompt

__all__ = ["CrossEMConfig", "CrossEM"]

_log = get_logger("repro.core.matcher")


@dataclasses.dataclass
class CrossEMConfig:
    """Hyper-parameters of Algorithm 1.

    ``prompt`` selects the generator: ``"baseline"`` (naive §II-B
    template), ``"hard"`` (f_pro^h) or ``"soft"`` (f_pro^s).
    ``vertices_per_batch`` x ``images_per_batch`` is the paper's batch
    size N = N1 x N2.
    """

    prompt: str = "hard"
    d: int = 1
    epochs: int = 5
    vertices_per_batch: int = 8
    images_per_batch: int = 16
    lr: float = 5e-4
    temperature: float = 0.07
    alpha: float = 0.5
    aggregator: str = "gnn"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.prompt not in ("baseline", "hard", "soft"):
            raise ValueError(f"unknown prompt kind {self.prompt!r}")
        if self.aggregator not in ("gnn", "sage"):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")

    def make_aggregator(self):
        if self.aggregator == "sage":
            return GraphSageAggregator(seed=self.seed)
        return GNNAggregator()


class CrossEM:
    """The CrossEM matcher.

    Typical use::

        matcher = CrossEM(bundle, CrossEMConfig(prompt="soft"))
        matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
        result = matcher.evaluate(dataset, split.test)

    After :meth:`fit`, :attr:`efficiency` holds per-epoch time and peak
    memory (the Table III quantities).
    """

    #: discriminator recorded in checkpoints/archives so state saved by
    #: one matcher class is never silently restored into another
    _checkpoint_kind = "base"

    def __init__(self, bundle: PretrainedBundle,
                 config: Optional[CrossEMConfig] = None) -> None:
        self.bundle = bundle
        self.config = config or CrossEMConfig()
        # Tune a private copy so the zoo's pre-trained weights survive.
        self.clip = bundle.clip.clone()
        self.tokenizer = bundle.tokenizer
        self.graph: Optional[Graph] = None
        self.images: List[SyntheticImage] = []
        self.vertex_ids: List[int] = []
        self.soft_prompts: Optional[SoftPromptModule] = None
        self._hard_prompts: Dict[int, str] = {}
        self._prompt_token_ids: Optional[np.ndarray] = None
        self._prompt_mask: Optional[np.ndarray] = None
        self._vertex_pos: Dict[int, int] = {}
        self._text_embeds: Optional[np.ndarray] = None
        self._image_embeds: Optional[np.ndarray] = None
        self._pseudo_labels: Dict[int, int] = {}
        #: |X_p| of each productive batch of the running epoch
        self._kept_rows: List[int] = []
        self._search_index = None
        self.efficiency: Optional[EfficiencyReport] = None
        self.epoch_losses: List[float] = []

    # -- prompt handling ----------------------------------------------------
    def _prepare_prompts(self) -> None:
        """Build the prompt generator and, for the discrete kinds,
        tokenize every vertex's prompt once.

        Hard and baseline prompts are static strings, so re-running
        ``encode_batch`` per training batch only repeats work — the
        padded id matrix and mask are cached here.  The full vertex
        embedding matrix (:meth:`_cached_text_matrix`) is built lazily
        on first use for every prompt kind.  Both caches are
        invalidated on every :meth:`fit`.
        """
        config = self.config
        self._text_embeds = None
        self._prompt_token_ids = None
        self._prompt_mask = None
        self._vertex_pos = {v: i for i, v in enumerate(self.vertex_ids)}
        if config.prompt == "soft":
            self.soft_prompts = SoftPromptModule(
                self.graph, self.vertex_ids, self.clip, self.tokenizer,
                self.bundle.minilm, alpha=config.alpha, d=config.d,
                aggregator=config.make_aggregator(), rng=config.seed)
            return
        if config.prompt == "hard":
            generator = HardPromptGenerator(self.graph, d=config.d)
            self._hard_prompts = {v: generator.generate(v)
                                  for v in self.vertex_ids}
        else:
            self._hard_prompts = {v: baseline_prompt(self.graph.label(v))
                                  for v in self.vertex_ids}
        with span("prompts/tokenize"):
            texts = [self._hard_prompts[v] for v in self.vertex_ids]
            self._prompt_token_ids = self.tokenizer.encode_batch(texts)
            self._prompt_mask = self.tokenizer.attention_mask(
                self._prompt_token_ids)

    def _cached_text_matrix(self) -> np.ndarray:
        """The full ``(|V|, embed_dim)`` prompted text embedding matrix
        — the one text operand of every post-``fit`` query.

        Hard/baseline prompts carry no trainable parameters and a soft
        prompt stops changing when :meth:`fit` returns, so between the
        end of a fit and the next load of tuned state one frozen
        forward pass is exact (DESIGN.md §6).  Built on first use in
        64-row chunks — from the cached token matrix, or through the
        soft prompt module — then sliced by every caller.  Training
        never reads it: :meth:`encode_vertices` stays the grad-capable
        path.
        """
        reg = registry()
        if self._text_embeds is None:
            reg.counter("matcher.prompt_cache.build").inc()
            add_trace_event("cache", cache="prompt", hit=False)
            if self.config.prompt == "soft":
                def encode(s: int, e: int) -> np.ndarray:
                    return self.soft_prompts(self.vertex_ids[s:e]).numpy()
            else:
                def encode(s: int, e: int) -> np.ndarray:
                    return self.clip.encode_text(
                        self._prompt_token_ids[s:e],
                        self._prompt_mask[s:e]).numpy()
            with span("encode/text_cache"), nn.no_grad():
                text_embeds = chunked_encode(
                    encode, len(self.vertex_ids), chunk=64,
                    name="encode_text")
            text_embeds.setflags(write=False)
            self._text_embeds = text_embeds
        else:
            reg.counter("matcher.prompt_cache.hit").inc()
            add_trace_event("cache", cache="prompt", hit=True)
        return self._text_embeds

    def encode_vertices(self, vertex_ids: Sequence[int]) -> nn.Tensor:
        """Prompted text embeddings for ``vertex_ids``: always computed
        and grad-enabled for the soft prompt (what training calls);
        sliced from the frozen matrix for the discrete kinds."""
        if self.config.prompt == "soft":
            return self.soft_prompts(vertex_ids)
        rows = np.asarray([self._vertex_pos[v] for v in vertex_ids])
        return nn.Tensor(self._cached_text_matrix()[rows])

    def _encode_images(self,
                       indices: Optional[Sequence[int]] = None) -> nn.Tensor:
        """Frozen image-tower embeddings for a batch of image indices;
        ``None`` is the whole repository.

        The tower is frozen (§II-C), so embeddings are computed once per
        fit and sliced afterwards; the first call fills the cache via
        the shared chunked (optionally thread-pooled) encode path.  An
        index subset is gathered into a fresh array; the whole
        repository is the cached matrix itself — read-only, because a
        write through it would corrupt every later answer.
        """
        if self._image_embeds is None:
            with span("encode/image_cache"):
                # C-contiguous, as the per-call gather used to hand it
                # to the GEMM: layout picks the BLAS path (DESIGN.md §6)
                self._image_embeds = np.ascontiguousarray(
                    self._encode_image_rows(range(len(self.images))))
            self._image_embeds.setflags(write=False)
        if indices is None:
            return nn.Tensor(self._image_embeds)
        return nn.Tensor(self._image_embeds[np.asarray(indices)])

    def _encode_image_rows(self, positions: Sequence[int]) -> np.ndarray:
        """Image-tower embeddings of the images at ``positions``, in
        order, through the shared 64-row chunked encode path."""
        with nn.no_grad():
            return chunked_encode(
                lambda s, e: self.clip.encode_image(np.stack(
                    [self.images[p].pixels for p in positions[s:e]])).numpy(),
                len(positions), chunk=64, name="encode_image")

    def image_matrix(self, positions: Sequence[int]) -> np.ndarray:
        """The frozen image matrix at its whole-repository shape
        ``(|I|, d)``, with only the rows at ``positions`` encoded and
        every other row zero: the scoring operand of a shard worker
        that answers for those images alone (DESIGN.md §14).

        The shape stays whole because BLAS picks its kernel by shape: a
        product against the encoded rows alone can differ from the same
        columns of the whole product in the last bit.  A warm
        whole-repository cache is returned as it is.  The partial matrix
        is never cached here: services over one matcher may own
        different positions."""
        self._require_fitted()
        if self._image_embeds is not None:
            return self._image_embeds
        positions = np.asarray(positions, dtype=np.int64)
        matrix = np.zeros((len(self.images), self.clip.embed_dim),
                          dtype=np.float32)
        if len(positions):
            with span("encode/image_rows"):
                matrix[positions] = self._encode_image_rows(positions)
        matrix.setflags(write=False)
        return matrix

    # -- training (Algorithm 1) ------------------------------------------------
    def _trainable_parameters(self) -> List[nn.Parameter]:
        """What prompt *tuning* tunes (Alg. 1 line 10 back-propagates to
        the prompting function Pro, not the encoders): the soft prompt
        table and the Eq. 7 fusion weights.  Hard and baseline prompts
        are discrete and have no learnable parameters — matching the
        paper, where CrossEM w/ f_pro^h reports no training time (the
        "-" entries of Table IV)."""
        if self.soft_prompts is None:
            return []
        clip_params = set(map(id, self.clip.parameters()))
        return [p for p in self.soft_prompts.parameters()
                if id(p) not in clip_params]

    def _epoch_batches(self, rng: np.random.Generator) -> List[Tuple[List[int], List[int]]]:
        """Randomly split the full candidate cross product into
        (vertex chunk, image chunk) mini-batches (Alg. 1 line 3)."""
        config = self.config
        vertex_order = rng.permutation(len(self.vertex_ids))
        image_order = rng.permutation(len(self.images))
        vertex_chunks = [
            [self.vertex_ids[i] for i in vertex_order[s:s + config.vertices_per_batch]]
            for s in range(0, len(vertex_order), config.vertices_per_batch)]
        image_chunks = [
            list(image_order[s:s + config.images_per_batch])
            for s in range(0, len(image_order), config.images_per_batch)]
        batches = [(vc, ic) for vc in vertex_chunks for ic in image_chunks
                   if len(vc) >= 2 and len(ic) >= 2]
        rng.shuffle(batches)
        return batches

    def _train_batch(self, optimizer: nn.AdamW, vertex_chunk: List[int],
                     image_chunk: List[int]) -> float:
        # Algorithm 1 lines 5-9.  The positive set X_p keeps only
        # vertices whose current pseudo-positive image sits in this
        # batch; the rest of the batch acts as negatives.  X_p depends
        # on the labels and the image chunk alone, so it is tested
        # before prompt generation and the encoders run: a batch with
        # empty X_p takes no optimizer step and costs no forward (it is
        # still enumerated — the cost CrossEM+'s mini-batch generation
        # cuts is the number of batches, see ``train.pairs``).
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
        optimizer.zero_grad()
        text_embeds = self.encode_vertices(vertex_chunk)
        image_embeds = self._encode_images(image_chunk)
        loss = self._batch_loss(text_embeds[np.asarray(keep_rows)],
                                image_embeds,
                                [vertex_chunk[r] for r in keep_rows],
                                np.asarray(positives))
        if loss is None:
            return float("nan")
        loss.backward()
        nn.clip_grad_norm(optimizer.params, 5.0)
        optimizer.step()
        self._kept_rows.append(len(keep_rows))
        return loss.item()

    def _batch_loss(self, text_embeds: nn.Tensor, image_embeds: nn.Tensor,
                    vertex_chunk: List[int],
                    positives: np.ndarray) -> Optional[nn.Tensor]:
        """The per-batch objective; CrossEM+ overrides this to add the
        orthogonal prompt constraint."""
        return batch_contrastive_loss(text_embeds, image_embeds,
                                      self.config.temperature, positives)

    # -- unsupervised pseudo-labeling --------------------------------------
    def _label_scores(self) -> np.ndarray:
        """The score matrix pseudo-labels are mined from.

        CrossEM scores the *full* |V| x |I| candidate cross product —
        the quadratic object whose cost §III's discussion calls out.
        (CrossEM+ overrides this with partition-local scoring and a PCP
        proximity prior.)  The matmul runs through tracked tensors so
        the memory meter sees the materialized candidate matrix.
        """
        with nn.no_grad():
            text = self._encode_all_vertices()
            scores = nn.Tensor(text) @ self._encode_images().transpose()
        return scores.numpy()

    def _refresh_pseudo_labels(self) -> int:
        """Self-label X_p as the *globally mutual* top-similarity pairs:
        vertex v's best image I such that v is also I's best vertex.
        Mutuality keeps precision high, which unsupervised contrastive
        tuning needs to avoid reinforcing one-directional errors.
        Returns how many candidate pairs were scored to find them."""
        scores = self._label_scores()
        best_image = scores.argmax(axis=1)
        best_vertex = scores.argmax(axis=0)
        self._pseudo_labels = {
            vertex: int(best_image[row])
            for row, vertex in enumerate(self.vertex_ids)
            if best_vertex[best_image[row]] == row}
        return int(np.isfinite(scores).sum())

    def _encode_all_vertices(self, batch: int = 32) -> np.ndarray:
        if self.config.prompt != "soft":
            return self._cached_text_matrix()
        chunks = [self.encode_vertices(self.vertex_ids[s:s + batch]).numpy()
                  for s in range(0, len(self.vertex_ids), batch)]
        return np.concatenate(chunks, axis=0)

    def fit(self, graph: Graph, images: Sequence[SyntheticImage],
            vertex_ids: Optional[Sequence[int]] = None, *,
            checkpoint_dir: Optional[Union[str, Path]] = None,
            checkpoint_every: int = 1,
            resume_from: Optional[Union[str, Path]] = None) -> "CrossEM":
        """Run Algorithm 1; returns self.

        ``vertex_ids`` defaults to the graph's entity vertices.

        With ``checkpoint_dir`` set, the tuned state (prompt parameters,
        optimizer moments, RNG state, epoch counter, pseudo-labels) is
        snapshotted atomically after every ``checkpoint_every``-th epoch
        and after the final one.  ``resume_from`` — a checkpoint file or
        a directory holding them — restores the newest verified snapshot
        and continues from its epoch; under a fixed seed the resumed run
        is bit-identical to an uninterrupted one (see DESIGN.md).  A
        resume directory without any valid checkpoint trains from
        scratch, so crash-retry loops need no special first-run casing.
        """
        self.graph = graph
        self.images = list(images)
        self.vertex_ids = list(vertex_ids if vertex_ids is not None
                               else graph.entity_ids())
        if len(self.vertex_ids) < 2 or len(self.images) < 2:
            raise ValueError("need at least two vertices and two images")
        # Prompt tuning updates the prompting function only (Alg. 1 line
        # 10), so the whole private CLIP copy is frozen, image tower
        # (§II-C) and text tower alike: backward then carries activation
        # gradients through the text tower to the prompts without also
        # accumulating weight gradients nobody reads.
        self.clip.freeze()
        self._prepare_prompts()
        self._image_embeds = None
        self._pseudo_labels = {}
        self._before_training()
        rng = rng_from(self.config.seed)
        trainable = self._trainable_parameters()
        epochs = self.config.epochs if trainable else 0
        optimizer = nn.AdamW(trainable, lr=self.config.lr) if trainable else None
        manager = CheckpointManager(checkpoint_dir, every=checkpoint_every) \
            if checkpoint_dir is not None else None
        epoch_seconds: List[float] = []
        pairs_total = label_pairs_total = steps_total = 0
        tracker = nn.MemoryTracker()
        reg = registry()
        self.epoch_losses = []
        start_epoch = 0
        if resume_from is not None:
            start_epoch = self._resume_training(resume_from, optimizer, rng)
        with tracker, span("fit"):
            for epoch in range(start_epoch, epochs):
                with span("epoch") as ep:
                    with span("labels"):
                        label_pairs = self._refresh_pseudo_labels()
                    self._kept_rows = []
                    batches = list(self._iter_epoch(rng))
                    losses = [self._train_batch(optimizer, vc, ic)
                              for vc, ic in batches]
                epoch_seconds.append(ep.elapsed)
                losses = [l for l in losses if not np.isnan(l)]
                mean_loss = float(np.mean(losses)) if losses else 0.0
                self.epoch_losses.append(mean_loss)
                pairs = sum(len(vc) * len(ic) for vc, ic in batches)
                pairs_per_sec = pairs / ep.elapsed if ep.elapsed > 0 else 0.0
                # A batch with empty X_p is enumerated and skipped before
                # any encoder runs (see _train_batch).  How many are, how
                # many labels there were to find and how many rows a
                # productive batch keeps say whether the epoch trained
                # on anything.
                empty = len(batches) - len(losses)
                productive_share = len(losses) / len(batches) \
                    if batches else 0.0
                kept_rows_mean = float(np.mean(self._kept_rows)) \
                    if self._kept_rows else 0.0
                reg.counter("train.batches").inc(len(batches))
                reg.counter("train.batches_empty").inc(empty)
                reg.gauge("train.productive_batch_share").set(productive_share)
                reg.gauge("train.kept_rows_mean").set(kept_rows_mean)
                reg.gauge("labels.count").set(len(self._pseudo_labels))
                reg.counter("train.pairs").inc(pairs)
                reg.counter("labels.pairs_scored").inc(label_pairs)
                pairs_total += pairs
                label_pairs_total += label_pairs
                steps_total += len(losses)
                reg.histogram("train.epoch_loss").observe(mean_loss)
                reg.histogram("train.epoch_seconds").observe(ep.elapsed)
                reg.gauge("train.pairs_per_sec").set(pairs_per_sec)
                _log.info("epoch done", epoch=epoch + 1, epochs=epochs,
                          loss=mean_loss, pairs=pairs,
                          pairs_per_sec=pairs_per_sec, seconds=ep.elapsed,
                          batches=len(batches), batches_empty=empty,
                          productive_share=productive_share,
                          labels=len(self._pseudo_labels),
                          kept_rows_mean=kept_rows_mean)
                if manager is not None and \
                        (manager.should_save(epoch) or epoch == epochs - 1):
                    self._save_checkpoint(manager, optimizer, rng, epoch)
        ran = max(len(epoch_seconds), 1)
        self.efficiency = EfficiencyReport(
            seconds_per_epoch=float(np.mean(epoch_seconds)) if epoch_seconds else 0.0,
            peak_memory_bytes=tracker.peak_bytes,
            pairs_per_epoch=pairs_total / ran,
            label_pairs_per_epoch=label_pairs_total / ran,
            steps_per_epoch=steps_total / ran)
        return self

    # -- checkpoint / resume -----------------------------------------------
    def _checkpoint_state(self, optimizer: Optional[nn.AdamW],
                          rng: np.random.Generator,
                          epoch: int) -> Tuple[Dict[str, np.ndarray], dict]:
        """Everything a resumed run needs to continue bit-identically:
        tuned parameters, optimizer moments, RNG state, epoch counter,
        losses and the current pseudo-labels."""
        arrays: Dict[str, np.ndarray] = {
            "epoch_losses": np.asarray(self.epoch_losses, dtype=np.float64),
        }
        if self.soft_prompts is not None:
            for key, value in self.soft_prompts.state_dict().items():
                if key.startswith("clip."):
                    continue  # frozen; rebuilt deterministically from the zoo
                arrays[f"soft.{key}"] = value
        opt_step = 0
        if optimizer is not None:
            opt_state = optimizer.state_dict()
            opt_step = opt_state["step"]
            for i, moment in enumerate(opt_state["m"]):
                arrays[f"opt.m.{i}"] = moment
            for i, moment in enumerate(opt_state["v"]):
                arrays[f"opt.v.{i}"] = moment
        if self._pseudo_labels:
            vertices = sorted(self._pseudo_labels)
            arrays["labels.vertices"] = np.asarray(vertices, dtype=np.int64)
            arrays["labels.images"] = np.asarray(
                [self._pseudo_labels[v] for v in vertices], dtype=np.int64)
        meta = {
            "kind": self._checkpoint_kind,
            "prompt": self.config.prompt,
            "seed": self.config.seed,
            "epoch": epoch + 1,  # the next epoch to run
            "num_vertices": len(self.vertex_ids),
            "num_images": len(self.images),
            "opt_step": opt_step,
            "rng": rng.bit_generator.state,
        }
        return arrays, meta

    def _save_checkpoint(self, manager: CheckpointManager,
                         optimizer: Optional[nn.AdamW],
                         rng: np.random.Generator, epoch: int) -> Path:
        arrays, meta = self._checkpoint_state(optimizer, rng, epoch)
        path = manager.save(epoch, arrays, meta)
        _log.info("checkpoint saved", epoch=epoch + 1, path=str(path))
        return path

    def _resume_training(self, source: Union[str, Path],
                         optimizer: Optional[nn.AdamW],
                         rng: np.random.Generator) -> int:
        """Restore the newest verified checkpoint from ``source`` (a
        checkpoint file or a directory of them); returns the epoch to
        continue from (0 when a directory holds no valid checkpoint)."""
        source = Path(source)
        if source.is_dir() or (not source.exists()
                               and source.suffix != ".ckpt"):
            # A directory with no valid checkpoint — including one that
            # does not exist yet — means "first run of a retry loop":
            # train fresh.  Naming a specific .ckpt file that is missing
            # stays a hard error below.
            found = CheckpointManager(source).latest()
            if found is None:
                _log.info("no valid checkpoint to resume, training fresh",
                          directory=str(source))
                return 0
            arrays, meta, path = found
        else:
            arrays, meta = read_checkpoint(source)
            path = source
        expected = {"kind": self._checkpoint_kind,
                    "prompt": self.config.prompt,
                    "seed": self.config.seed,
                    "num_vertices": len(self.vertex_ids),
                    "num_images": len(self.images)}
        for field, want in expected.items():
            if meta.get(field) != want:
                raise CheckpointMismatchError(
                    f"checkpoint {path} was written with {field}="
                    f"{meta.get(field)!r}, this run has {want!r}")
        if self.soft_prompts is not None:
            state = self.soft_prompts.state_dict()
            own = [k for k in state if not k.startswith("clip.")]
            missing = [k for k in own if f"soft.{k}" not in arrays]
            if missing:
                raise CheckpointMismatchError(
                    f"checkpoint {path} lacks tuned state for: "
                    f"{sorted(missing)}")
            for key in own:
                state[key] = arrays[f"soft.{key}"]
            self.soft_prompts.load_state_dict(state)
        if optimizer is not None:
            try:
                optimizer.load_state_dict({
                    "step": meta["opt_step"],
                    "m": [arrays[f"opt.m.{i}"]
                          for i in range(len(optimizer.params))],
                    "v": [arrays[f"opt.v.{i}"]
                          for i in range(len(optimizer.params))]})
            except (KeyError, ValueError) as exc:
                raise CheckpointMismatchError(
                    f"checkpoint {path} optimizer state does not fit this "
                    f"run: {exc}") from exc
        try:
            rng.bit_generator.state = meta["rng"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointMismatchError(
                f"checkpoint {path} carries an incompatible RNG state: "
                f"{exc}") from exc
        # tuned state changed: any text matrix built from the old
        # prompts is no longer the matcher's
        self._text_embeds = None
        if "labels.vertices" in arrays:
            self._pseudo_labels = {
                int(v): int(i) for v, i in zip(arrays["labels.vertices"],
                                               arrays["labels.images"])}
        self.epoch_losses = [float(l) for l in arrays["epoch_losses"]]
        epoch = int(meta["epoch"])
        _log.info("resumed from checkpoint", path=str(path), epoch=epoch)
        return epoch

    def _before_training(self) -> None:
        """Hook for one-time data preprocessing before the timed epochs
        (CrossEM+ builds its PCP partition plan here — the paper reports
        *per-epoch training* time, with mini-batch generation counted as
        preprocessing, §IV-A)."""

    def _iter_epoch(self, rng: np.random.Generator):
        """Yield this epoch's (vertex chunk, image chunk) batches;
        CrossEM+ overrides this with PCP partitions."""
        return self._epoch_batches(rng)

    # -- inference ---------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self.graph is None:
            raise RuntimeError("CrossEM.fit must be called before inference")

    def score(self, vertex_ids: Optional[Sequence[int]] = None,
              images: Optional[np.ndarray] = None) -> np.ndarray:
        """Similarity matrix (vertices x all images), evaluated frozen:
        rows of the frozen text matrix against the frozen image matrix,
        or against ``images``, a matrix from :meth:`image_matrix`."""
        self._require_fitted()
        with trace_span("matcher/score"):
            vertex_ids = list(vertex_ids if vertex_ids is not None
                              else self.vertex_ids)
            text = self._text_queries(vertex_ids)
            if images is None:
                images = self._encode_images().numpy()
            return text @ images.T

    def _text_queries(self, vertex_ids: Sequence[int]) -> np.ndarray:
        """The prompted text embedding rows for ``vertex_ids`` — the
        query operand both the brute-force GEMM and the ANN index
        search against, sliced from the frozen matrix for every prompt
        kind."""
        rows = np.asarray([self._vertex_pos[v] for v in vertex_ids])
        return self._cached_text_matrix()[rows]

    # -- ANN index ---------------------------------------------------------------
    @property
    def search_index(self):
        """The attached ANN index, or ``None`` (brute-force scoring)."""
        return self._search_index

    def attach_index(self, index) -> None:
        """Route ``match_pairs`` top-k through ``index`` (an
        :class:`repro.index.IVFPQIndex` over this matcher's image
        embeddings).  ``CrossEM.score`` is untouched — it stays the
        exact golden reference the index is measured against."""
        self._require_fitted()
        if index.count != len(self.images):
            raise ValueError(
                f"index holds {index.count} vectors but the matcher "
                f"serves {len(self.images)} images")
        self._search_index = index
        _log.info("search index attached", vectors=index.count,
                  nlist=index.nlist, nprobe=index.nprobe)

    def detach_index(self) -> None:
        """Back to brute-force scoring."""
        self._search_index = None

    def build_index(self, config=None):
        """Build, attach and return an IVF-PQ index over this matcher's
        frozen image-tower embeddings."""
        from ..index import build_ivfpq

        self._require_fitted()
        index = build_ivfpq(self._encode_images().numpy(), config)
        self.attach_index(index)
        return index

    def score_topk(self, vertex_ids: Optional[Sequence[int]] = None,
                   top_k: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex top-``top_k`` ``(image positions, scores)`` — via
        the attached ANN index when present, else the exact brute GEMM.

        Both paths order by ``(-score, image position)``; rows are
        ``-1`` / ``-inf`` padded past their comparable (non-NaN) scores
        when they have fewer than ``top_k``.
        """
        from ..index.topk import padded_topk_rows

        self._require_fitted()
        vertex_ids = list(vertex_ids if vertex_ids is not None
                          else self.vertex_ids)
        if self._search_index is not None:
            with trace_span("matcher/score_topk"):
                text = self._text_queries(vertex_ids)
                result = self._search_index.search(text, top_k)
            return result.ids, result.scores
        return padded_topk_rows(self.score(vertex_ids), top_k)

    def evaluate(self, dataset, vertex_ids: Optional[Sequence[int]] = None) -> RankingResult:
        """Rank all images per vertex and score H@k/MRR against the
        dataset's ground truth."""
        vertex_ids = list(vertex_ids if vertex_ids is not None else self.vertex_ids)
        with span("evaluate"):
            scores = self.score(vertex_ids)
            gold = dataset.images_of_vertices(vertex_ids)
            result = evaluate_ranking(scores, gold)
        reg = registry()
        reg.gauge("eval.hits1").set(result.hits1)
        reg.gauge("eval.hits3").set(result.hits3)
        reg.gauge("eval.hits5").set(result.hits5)
        reg.gauge("eval.mrr").set(result.mrr)
        _log.info("evaluated", vertices=len(vertex_ids), h1=result.hits1,
                  h3=result.hits3, h5=result.hits5, mrr=result.mrr)
        return result

    def match_pairs(self, vertex_ids: Optional[Sequence[int]] = None,
                    top_k: int = 1,
                    threshold: Optional[float] = None) -> Set[Tuple[int, int]]:
        """The matching set S (Definition 2).

        By default each vertex contributes its ``top_k`` highest-scoring
        images.  With ``threshold`` set, S instead contains every pair
        whose similarity reaches the threshold (the paper does not
        assume one-to-one matching), which trades precision for recall —
        see :func:`repro.core.metrics.matching_set_metrics`.

        Top-k selection is deterministic under score ties — ordered by
        ``(-score, image position)`` — so the brute-force path and an
        attached ANN index (see :meth:`attach_index`) return identical
        matching sets wherever the index shortlist is exact.  Threshold
        mode needs every score, so it always runs the brute GEMM.
        """
        from ..index.topk import deterministic_topk_rows

        self._require_fitted()
        vertex_ids = list(vertex_ids if vertex_ids is not None else self.vertex_ids)
        pairs: Set[Tuple[int, int]] = set()
        if threshold is None and self._search_index is not None \
                and top_k > 0:
            with trace_span("matcher/match_index"):
                text = self._text_queries(vertex_ids)
                result = self._search_index.search(text, top_k)
            for row, vertex in enumerate(vertex_ids):
                for column in result.ids[row]:
                    if column >= 0:
                        pairs.add((vertex, self.images[int(column)].image_id))
            return pairs
        scores = self.score(vertex_ids)
        top: Optional[np.ndarray] = None
        if threshold is None:
            top = deterministic_topk_rows(scores, top_k)
        for row, vertex in enumerate(vertex_ids):
            if threshold is not None:
                columns = np.flatnonzero(scores[row] >= threshold)
            else:
                columns = top[row]
            for column in columns:
                pairs.add((vertex, self.images[int(column)].image_id))
        return pairs
