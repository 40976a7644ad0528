"""The two offline workloads: ``tune_plus`` and ``index_bulk``."""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

import numpy as np

import worlds
from harness import Outcome, Run, median_ms, repeat_for, timed
from pace import Pacer, Series, quiet_slices
from procs import OUT_DIR
from repro import nn
from repro.clip.zoo import clear_memory_cache
from repro.core.losses import batch_contrastive_loss
from repro.core.minibatch import (PCPConfig, generate_minibatches, kmeans,
                                  pairwise_proximity, property_closeness)
from repro.core.negative import augment_plan
from repro.index import (build_ivfpq, deterministic_topk,
                         deterministic_topk_rows, load_index, save_index)
from repro.obs import registry, span_snapshot

__all__ = ["tune_plus", "index_bulk"]

#: the offline set-ups are cheap enough to repeat; their median is
#: what ``setup_s`` reports
SETUP_REPEATS = 3
TUNE_IMAGES_PER_CONCEPT = 10
#: ``tune_plus`` tunes one epoch at a time, a fresh matcher each time:
#: the reference kernel can only be timed between two calls of ``fit``,
#: not inside one.  Plan + one epoch takes 4.2 s on the 2-core
#: reference box when it is quiet, so a run of 20 s makes four fits.
EPOCHS_PER_FIT = 1
SECONDS_PER_FIT = 5.0
#: share of ``--seconds`` spent timing inference after the fits
INFERENCE_SHARE = 0.2
#: the entities are sent through the tuned matcher one by one in this
#: many slices, one slice per inference round
LONE_SLICES = 6
#: seconds of probed and of exhaustive batches in one slice of an
#: ``index_bulk`` run, and the lone queries that follow them
INDEX_SLICE = (0.15, 0.08)
LONE_PER_SLICE = 32
SCORE_TOLERANCE = 1e-5


def _box(out: Outcome, pacer: Pacer, raw: Dict[str, Series]) -> None:
    """The box beside the program: the slowdown the run saw, and the
    plain medians the steady metrics were read from."""
    slowdowns = pacer.slowdowns
    out.per_layer["box.slowdown_p50"] = statistics.median(slowdowns)
    out.per_layer["box.slowdown_quiet"] = statistics.median(
        slowdowns[i] for i in quiet_slices(slowdowns))
    for name, series in raw.items():
        scale = 1.0 if series.rate else 1e3
        out.per_layer[f"raw.{name}"] = scale * series.raw()
    out.detail["slowdowns"] = list(slowdowns)
    out.detail["ticks"] = pacer.ticks
    out.detail["series"] = {name: {"values": series.values,
                                   "slices": series.slices}
                            for name, series in raw.items()}


# -- tune_plus ----------------------------------------------------------------
def tune_plus(run: Run) -> Outcome:
    out = Outcome()
    rec = run.recorder
    pacer = Pacer()
    fits = max(1, round(run.seconds / SECONDS_PER_FIT))

    built = {}
    parts: Dict[str, List[float]] = {}

    def set_up():
        clear_memory_cache()  # every repeat loads the bundle from disk
        (bundle, _), load_s = timed(worlds.load_bundle)
        dataset, world_s = timed(lambda: worlds.relational_world(
            bundle, TUNE_IMAGES_PER_CONCEPT, run.seed))
        built.update(bundle=bundle, dataset=dataset,
                     matcher=worlds.plus_matcher(bundle, EPOCHS_PER_FIT))
        parts.setdefault("clip.zoo.bundle_load_s", []).append(load_s)
        parts.setdefault("datasets.world_build_s", []).append(world_s)

    out.end_to_end["setup_s"] = run.boot_s + _repeat_set_up(set_up, pacer)
    out.per_layer.update(_medians(parts))
    bundle, dataset, matcher = \
        built["bundle"], built["dataset"], built["matcher"]
    vertices = dataset.entity_vertices

    if run.trace:
        _probe_plan(run, out, bundle, dataset)

    # the untuned hard-prompt matcher on the same world: tuning that
    # does not beat it has failed, whatever it cost
    baseline = worlds.hard_matcher(bundle).fit(
        dataset.graph, dataset.images, vertices)
    baseline_mrr = baseline.evaluate(dataset).mrr

    # Tuning: the same plan + epoch, ``fits`` times over, the reference
    # kernel on either side of each.
    tuned_per_s = Series(rate=True)
    fit_seconds = []
    for _ in range(fits):
        matcher = worlds.plus_matcher(bundle, EPOCHS_PER_FIT)
        pacer.tick()
        with rec.span("core.matcher.fit"):
            _, fit_s = timed(lambda: matcher.fit(
                dataset.graph, dataset.images, vertices))
        tuned_per_s.add(matcher.trained_pairs * EPOCHS_PER_FIT / fit_s,
                        pacer.tick())
        fit_seconds.append(fit_s)
    out.per_layer["core.matcher.fit_s"] = statistics.median(fit_seconds)

    # Inference, in rounds: each round sends a slice of the entities
    # through the tuned matcher one at a time (soft-prompt text tower +
    # one score row), in a seeded order, then ranks every entity at
    # once (evaluate + the matching set).  A round is one slice.
    def bulk():
        with rec.span("core.matcher.evaluate"):
            result = matcher.evaluate(dataset)
        with rec.span("core.matcher.match_pairs"):
            matched = matcher.match_pairs(top_k=1)
        return result, matched

    order = np.random.default_rng(run.seed).permutation(len(vertices))
    slices = np.array_split(order, LONE_SLICES)
    lone, heavy, answers = Series(), Series(), {}
    rounds = 0
    stop_at = time.perf_counter() + INFERENCE_SHARE * run.seconds
    pacer.tick()
    while rounds < LONE_SLICES or time.perf_counter() < stop_at:
        for position in slices[rounds % LONE_SLICES]:
            answer, seconds = timed(
                lambda: matcher.score_topk([vertices[position]], 5))
            lone.add(seconds, pacer.current)
            answers[position] = answer
        (result, matched), seconds = timed(bulk)
        heavy.add(seconds, pacer.current)
        pacer.tick()
        rounds += 1
    slowdowns = pacer.slowdowns
    out.end_to_end.update({
        "latency_p50_ms": 1e3 * lone.steady(slowdowns),
        "heavy_p50_ms": 1e3 * heavy.steady(slowdowns),
        "throughput_per_s": tuned_per_s.steady(slowdowns),
        "quality": result.mrr,
    })

    # -- oracle ---------------------------------------------------------------
    scores = matcher.score()
    out.check(bool(np.isfinite(scores).all()), "tune_plus: non-finite scores")
    out.check(result.mrr > baseline_mrr,
              f"tune_plus: tuned mrr {result.mrr:.4f} does not beat the "
              f"untuned hard-prompt mrr {baseline_mrr:.4f}")
    out.check(len(matched) == len(vertices) and
              {v for v, _ in matched} == set(vertices),
              "tune_plus: match_pairs(top_k=1) is not one pair per vertex")
    wrong = 0
    for position, (ids, values) in answers.items():
        row = scores[position]
        kth = row[deterministic_topk(row, 5)[-1]]
        good = (np.all(np.diff(values[0]) <= 0)
                and np.allclose(values[0], row[ids[0]], atol=SCORE_TOLERANCE)
                and values[0][-1] >= kth - SCORE_TOLERANCE)
        wrong += 0 if good else 1
    out.attempted += len(answers)
    out.failed += wrong
    if wrong:
        out.problems.append(f"tune_plus: {wrong} single-vertex top-5 "
                            f"answers disagree with the full score matrix")

    out.per_layer.update({
        "core.matcher.evaluate_s": _span_median(rec, "core.matcher.evaluate"),
        "core.matcher.match_pairs_s":
            _span_median(rec, "core.matcher.match_pairs"),
        "core.metrics.mrr": result.mrr,
        "core.metrics.hits1": result.hits1,
        "core.metrics.hits5": result.hits5,
        "core.metrics.mrr_untuned": baseline_mrr,
        "nn.peak_memory_mb": matcher.efficiency.peak_memory_mb,
        "vision.image_encode_cold_s": _program_span("encode/image_cache"),
        "core.matcher.epoch_s_p50": _program_span("fit/epoch"),
        "core.matcher.batches_per_epoch":
            registry().get("train.batches").value / (fits * EPOCHS_PER_FIT),
    })
    if run.trace:
        _probe_queries(out, matcher, vertices, order)
        _probe_training_step(run, out, matcher, dataset)
    out.detail = {"fits": fits, "epochs_per_fit": EPOCHS_PER_FIT,
                  "fit_s": fit_seconds,
                  "trained_pairs": matcher.trained_pairs,
                  "lone_queries": len(lone.values), "rounds": rounds,
                  "baseline_mrr": baseline_mrr}
    _box(out, pacer, {"latency_p50_ms": lone, "heavy_p50_ms": heavy,
                      "throughput_per_s": tuned_per_s})
    return out


def _repeat_set_up(set_up: Callable[[], None], pacer: Pacer) -> float:
    """Median seconds of ``SETUP_REPEATS`` runs of ``set_up``, each
    divided by the slowdown of the box around it."""
    seconds = Series()
    for _ in range(SETUP_REPEATS):
        pacer.tick()
        _, elapsed = timed(set_up)
        seconds.add(elapsed, pacer.tick())
    return seconds.steady(pacer.slowdowns, share=1.0)


def _medians(parts: Dict[str, List[float]]) -> Dict[str, float]:
    return {name: statistics.median(values) for name, values in parts.items()}


def _span_median(rec, name: str) -> float:
    durations = [row["end"] - row["start"] for row in rec.spans
                 if row["name"] == name]
    return statistics.median(durations) if durations else 0.0


def _program_span(suffix: str) -> float:
    """Median seconds of a span in the program's own profile (the
    first path ending in ``suffix``).  Per-layer only: the program
    could move or rename the span."""
    for row in span_snapshot():
        if row["name"] == suffix or row["name"].endswith("/" + suffix):
            return float(row["p50_seconds"])
    return 0.0


def _probe_plan(run: Run, out: Outcome, bundle, dataset) -> None:
    """Time the PCP phases and negative sampling one by one, the way
    ``CrossEMPlus.fit`` composes them."""
    rec = run.recorder
    config = PCPConfig()
    vertices = dataset.entity_vertices
    with rec.span("core.minibatch"):
        with rec.span("core.minibatch.closeness"):
            (properties, patches), closeness_s = timed(
                lambda: property_closeness(
                    dataset.graph, vertices, dataset.images, bundle.minilm,
                    bundle.aligner, config.d))
        with rec.span("core.minibatch.proximity"):
            proximity, proximity_s = timed(lambda: pairwise_proximity(
                dataset.graph, vertices, properties, patches, config.d))
        # the clustering input of the first vertex subset, as phase 3
        # builds it: per-image distribution of proximity over the subset
        subset = proximity[:max(1, len(vertices) // config.num_vertex_subsets)]
        distributions = (subset / np.maximum(subset.sum(axis=0), 1e-8)).T
        with rec.span("core.minibatch.kmeans"):
            _, kmeans_s = timed(lambda: kmeans(
                distributions, config.num_image_clusters, run.seed))
    with rec.span("core.minibatch.generate_minibatches"):
        plan, plan_s = timed(lambda: generate_minibatches(
            dataset.graph, vertices, dataset.images, bundle.minilm,
            bundle.aligner, config))
    with rec.span("core.negative.augment_plan"):
        augmented, augment_s = timed(lambda: augment_plan(plan))
    gold_pairs = 0
    kept = set()
    for vertex in vertices:
        gold_pairs += len(dataset.images_of_vertex(vertex))
    for part in augmented.partitions:
        members = set(part.image_indices)
        for vertex in part.vertex_ids:
            kept.update((vertex, i) for i in dataset.images_of_vertex(vertex)
                        if i in members)
    out.per_layer.update({
        "core.minibatch.closeness_s": closeness_s,
        "core.minibatch.proximity_s": proximity_s,
        "core.minibatch.kmeans_s": kmeans_s,
        "core.minibatch.plan_s": plan_s,
        "core.minibatch.plan_pairs": augmented.total_pairs,
        "core.minibatch.pair_coverage": len(kept) / gold_pairs,
        "core.negative.augment_s": augment_s,
        "core.negative.negatives": _images_in(augmented) - _images_in(plan),
    })


def _images_in(plan) -> int:
    return sum(len(part.image_indices) for part in plan.partitions)


def _probe_queries(out: Outcome, matcher, vertices, order) -> None:
    """The three inference steps of one query, timed apart."""
    probe = [vertices[p] for p in order[:64]]

    def encode(vertex):
        with nn.no_grad():
            matcher.encode_vertices([vertex])

    out.per_layer.update({
        "core.matcher.text_query_us": 1e3 * median_ms(
            [timed(lambda: encode(v))[1] for v in probe]),
        "core.matcher.score_row_us": 1e3 * median_ms(
            [timed(lambda: matcher.score([v]))[1] for v in probe]),
        "core.matcher.score_topk_us": 1e3 * median_ms(
            [timed(lambda: matcher.score_topk([v], 5))[1] for v in probe]),
    })


def _probe_training_step(run: Run, out: Outcome, matcher, dataset) -> None:
    """One training batch from the outside: prompt + text tower
    forward, loss, backward, optimizer step, at the paper's 8 x 16
    batch.  The learning rate is zero, so the tuned prompts the other
    measurements read are left exactly as ``fit`` made them."""
    frozen = set(map(id, matcher.clip.parameters()))
    optimizer = nn.AdamW([p for p in matcher.soft_prompts.parameters()
                          if id(p) not in frozen], lr=0.0)
    partition = matcher.plan.partitions[0]
    chunk = list(partition.vertex_ids[:matcher.config.vertices_per_batch])
    columns = list(partition.image_indices[:matcher.config.images_per_batch])
    with nn.no_grad():
        image_embeds = matcher.clip.encode_image(
            np.stack([dataset.images[i].pixels for i in columns]))
    positives = np.arange(len(chunk)) % len(columns)

    def step():
        with run.recorder.span("nn.forward_backward_step"):
            optimizer.zero_grad()
            text = matcher.encode_vertices(chunk)
            loss = batch_contrastive_loss(text, image_embeds,
                                          matcher.config.temperature,
                                          positives)
            loss.backward()
            nn.clip_grad_norm(optimizer.params, 5.0)
            optimizer.step()

    out.per_layer["nn.fwd_bwd_ms"] = median_ms(
        [timed(step)[1] for _ in range(10)])


# -- index_bulk ---------------------------------------------------------------
def index_bulk(run: Run) -> Outcome:
    out = Outcome()
    rec = run.recorder
    k = 10
    path = OUT_DIR / f"index-{run.seed}.reproix"
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    # Set-up is the write side of the index layer: generate, build,
    # publish, reopen.  A faster search bought with a slower or larger
    # build shows here.
    built = {}
    parts: Dict[str, List[float]] = {}

    def set_up():
        images, queries = worlds.index_world(run.seed)
        with rec.span("index.ivfpq.build_ivfpq"):
            index, build_s = timed(
                lambda: build_ivfpq(images, worlds.INDEX_CONFIG))
        with rec.span("index.store.save_index"):
            _, save_s = timed(lambda: save_index(path, index))
        with rec.span("index.store.load_index"):
            reopened, open_s = timed(lambda: _open_and_search(path, queries, k))
        built.update(images=images, queries=queries, index=index,
                     reopened=reopened)
        parts.setdefault("index.ivfpq.build_s", []).append(build_s)
        parts.setdefault("index.store.save_s", []).append(save_s)
        parts.setdefault("index.store.open_lazy_ms", []).append(open_s * 1e3)

    pacer = Pacer()
    out.end_to_end["setup_s"] = run.boot_s + _repeat_set_up(set_up, pacer)
    out.per_layer.update(_medians(parts))
    images, queries = built["images"], built["queries"]
    index, reopened = built["index"], built["reopened"]
    out.per_layer.update({
        "index.ivfpq.build_vectors_per_s":
            len(images) / out.per_layer["index.ivfpq.build_s"],
        "index.store.bytes_per_vector": path.stat().st_size / len(images),
    })

    # -- measured, in slices of about a third of a second: probed
    # batches, exhaustive batches, then lone queries that walk round
    # the query set, the reference kernel between slices ---------------------
    def probed():
        with rec.span("index.ivfpq.search.nprobe4"):
            return index.search(queries, k)

    def exhaustive():
        with rec.span("index.ivfpq.search.exhaustive"):
            return index.search(queries, k, nprobe=index.nlist)

    batches: List[float] = []
    probed_per_s = Series(rate=True)
    fallback, lone = Series(), Series()
    singles = {}
    cursor = 0
    stop_at = time.perf_counter() + run.seconds
    pacer.tick()
    while not batches or time.perf_counter() < stop_at:
        durations = repeat_for(probed, INDEX_SLICE[0], at_least=1)
        probed_per_s.add(len(durations) * len(queries) / sum(durations),
                         pacer.current)
        batches += durations
        fallback.extend(repeat_for(exhaustive, INDEX_SLICE[1], at_least=1),
                        pacer.current)
        for _ in range(LONE_PER_SLICE):
            q = cursor % len(queries)
            singles[q], seconds = timed(
                lambda: index.search(queries[q:q + 1], k))
            lone.add(seconds, pacer.current)
            cursor += 1
        pacer.tick()
    slowdowns = pacer.slowdowns
    out.end_to_end.update({
        "throughput_per_s": probed_per_s.steady(slowdowns),
        "heavy_p50_ms": 1e3 * fallback.steady(slowdowns),
        "latency_p50_ms": 1e3 * lone.steady(slowdowns),
    })

    # -- oracle: brute GEMM + deterministic top-k -----------------------------
    truth = queries @ images.T
    with rec.span("index.topk.rows"):
        oracle_ids, rows_s = timed(lambda: deterministic_topk_rows(truth, k))
    oracle_scores = np.take_along_axis(truth, oracle_ids, axis=1)
    result = probed()
    exact = exhaustive()
    loaded = reopened.search(queries, k)
    recall = _recall(result.ids, oracle_ids)
    out.end_to_end["quality"] = recall
    out.check(np.array_equal(exact.ids, oracle_ids)
              and np.array_equal(exact.scores, oracle_scores),
              "index_bulk: exhaustive search is not bit-identical to "
              "brute GEMM + deterministic_topk_rows", len(fallback.values))
    out.check(_probed_consistent(result, truth)
              and _probed_consistent(loaded, truth)
              and np.array_equal(result.ids, loaded.ids),
              "index_bulk: probed results are not the true inner "
              "products of their ids in (-score, id) order, or the "
              "reopened index answers differently", len(batches))
    out.check(all(_probed_consistent(single, truth[q:q + 1])
                  for q, single in singles.items()),
              "index_bulk: a lone query's result is not the true inner "
              "products of its ids in (-score, id) order", len(lone.values))
    out.check(recall >= 0.95,
              f"index_bulk: recall@10 {recall:.4f} is below 0.95")

    out.per_layer.update({
        "index.ivfpq.recall_at10.nprobe4": recall,
        "index.ivfpq.search_batch_ms.nprobe4": median_ms(batches),
        "index.ivfpq.exhaustive_batch_ms": 1e3 * fallback.raw(),
        "index.ivfpq.search_single_ms": 1e3 * lone.raw(),
        "index.ivfpq.candidates_per_query": float(result.candidates.mean()),
        "index.ivfpq.shortlist_per_query": float(result.shortlists.mean()),
        "index.ivfpq.recall_proxy": float(result.recall_proxy),
        "index.topk.rows_ms": rows_s * 1e3,
        "index.topk.row_us": 1e3 * median_ms(
            [timed(lambda: deterministic_topk(truth[q], k))[1]
             for q in range(len(queries))]),
    })
    if run.trace:
        for nprobe in (1, 16):
            def probe():
                with rec.span(f"index.ivfpq.search.nprobe{nprobe}"):
                    return index.search(queries, k, nprobe=nprobe)

            out.per_layer[f"index.ivfpq.search_batch_ms.nprobe{nprobe}"] = \
                median_ms(repeat_for(probe, 1.0))
            out.per_layer[f"index.ivfpq.recall_at10.nprobe{nprobe}"] = \
                _recall(probe().ids, oracle_ids)
        with rec.span("index.store.load_index.verify_full"):
            _, verify_s = timed(
                lambda: load_index(path, verify="full").search(queries, k))
        out.per_layer["index.store.open_full_verify_ms"] = verify_s * 1e3
    path.unlink()
    out.detail = {"vectors": len(images), "queries": len(queries),
                  "probed_batches": len(batches),
                  "exhaustive_batches": len(fallback.values),
                  "lone_queries": len(lone.values)}
    _box(out, pacer, {"latency_p50_ms": lone, "heavy_p50_ms": fallback,
                      "throughput_per_s": probed_per_s})
    return out


def _open_and_search(path, queries, k):
    index = load_index(path)
    index.search(queries, k)  # first search pages the sections in
    return index


def _recall(ids: np.ndarray, oracle_ids: np.ndarray) -> float:
    hits = sum(len(set(found.tolist()) & set(wanted.tolist()))
               for found, wanted in zip(ids, oracle_ids))
    return hits / oracle_ids.size


def _probed_consistent(result, truth: np.ndarray) -> bool:
    """Every returned score is the true inner product of its id, and
    rows are ordered by (-score, id)."""
    if (result.ids < 0).any():
        return False
    if not np.allclose(result.scores,
                       np.take_along_axis(truth, result.ids, axis=1),
                       atol=1e-6):
        return False
    falling = np.diff(result.scores, axis=1) <= 0
    tied = np.diff(result.scores, axis=1) == 0
    ascending_ids = np.diff(result.ids, axis=1) > 0
    return bool(falling.all() and (ascending_ids | ~tied).all())
