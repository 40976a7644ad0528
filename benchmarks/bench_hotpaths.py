#!/usr/bin/env python
"""Hot-path micro-benchmarks for the fused encoder pipeline.

Times every optimized path against the naive reference it replaced
(the references are kept in the tree, some under ``tests/oracles/``,
and double as golden oracles in the equivalence tests) and writes the
speedups to ``BENCH_hotpaths.json`` at the repository root.

Modes
-----
``--quick``
    Tiny bird bundle (the test-suite bundle) — seconds, suitable for a
    CI smoke job.
default (full)
    Figure 8 scalability sizes (FB10K-IMG, 240-concept entity bundle) —
    the scale at which the paper's efficiency claims are made.

``--baseline PATH`` compares the measured *speedups* (not absolute
seconds, so the check is machine-independent) against a committed
baseline JSON and exits non-zero if any path regressed by more than
``--tolerance`` (default 2x).
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro import nn  # noqa: E402
from repro.index import (IVFPQConfig, build_ivfpq,  # noqa: E402
                         deterministic_topk_rows)
from repro.clip.pretrain import PretrainConfig  # noqa: E402
from repro.clip.zoo import get_pretrained_bundle  # noqa: E402
from repro.core.crossem_plus import (CrossEMPlus,  # noqa: E402
                                     CrossEMPlusConfig)
from repro.core.losses import batch_contrastive_loss  # noqa: E402
from repro.core.matcher import CrossEM, CrossEMConfig  # noqa: E402
from repro.core.minibatch import (kmeans, pairwise_proximity,  # noqa: E402
                                  property_closeness)
from repro.datasets import fb_bundle, load_fbimg  # noqa: E402
from repro.datasets.generator import build_attribute_dataset  # noqa: E402
from repro.netserve import (TABLE_K, NetServeConfig,  # noqa: E402
                            NetServer, encode_response)
from repro.obs import format_profile, registry, span  # noqa: E402
from repro.serve import MatchService  # noqa: E402
from repro.text.corpus import build_text_corpus  # noqa: E402
from tests.oracles.kmeans import kmeans_loop, kmeans_reference  # noqa: E402
from tests.oracles.minilm import (cooccurrence_reference,  # noqa: E402
                                  embed_texts_reference)
from tests.oracles.prompt_cache import encode_vertices_reference  # noqa: E402
from tests.oracles.proximity import pairwise_proximity_reference  # noqa: E402
from tests.oracles import ivfpq_search  # noqa: E402
from tests.oracles import topk as topk_oracle  # noqa: E402

#: pre-training recipe for the quick-mode bundle (mirrors the test suite
#: so CI reuses the same disk-cached bundle the tier-1 job just built)
QUICK_CONFIG = PretrainConfig(epochs=20, batch_size=16,
                              captions_per_concept=6, seed=7)


def _best_of(fn, repeats: int, label: str) -> float:
    """Best-of-N wall time; the min is the least noisy point estimate."""
    best = float("inf")
    for _ in range(repeats):
        with span(f"bench/{label}") as timer:
            fn()
        best = min(best, timer.elapsed)
    return best


def _bench_pair(name: str, optimized, reference, repeats: int) -> dict:
    optimized()  # warm both paths (caches, allocator, BLAS threads)
    reference()
    opt = _best_of(optimized, repeats, f"{name}/optimized")
    ref = _best_of(reference, repeats, f"{name}/reference")
    entry = {"optimized_s": opt, "reference_s": ref,
             "speedup": ref / opt if opt > 0 else float("inf")}
    print(f"  {name:28s} {opt * 1e3:9.2f} ms vs {ref * 1e3:9.2f} ms "
          f"-> {entry['speedup']:6.2f}x")
    return entry


def _bench_calls(name: str, fn, calls: int, repeats: int) -> dict:
    """Time ``calls`` back-to-back calls of an engine step that has no
    reference twin in the tree.  The row reports the total (so a
    regression clears the differ's absolute noise floor) beside the
    per-call figure a reader wants."""
    fn()  # warm
    total = _best_of(lambda: [fn() for _ in range(calls)], repeats, name)
    entry = {"optimized_s": total, "calls": calls,
             "per_call_ms": 1e3 * total / calls}
    print(f"  {name:28s} {entry['per_call_ms']:9.3f} ms/call "
          f"({calls} calls, {total * 1e3:.1f} ms)")
    return entry


def bench_engine(bundle, dataset, repeats: int, paths: dict) -> None:
    """The ``repro.nn`` engine under the soft prompt: one training step
    (``nn_fwd_bwd``: prompt + text tower forward, contrastive loss,
    backward, ``AdamW.step`` on one 8 x 16 batch) and one served query
    (``soft_text_query``: ``encode_vertices([v])`` under ``no_grad``)."""
    matcher = CrossEM(bundle, CrossEMConfig(prompt="soft", epochs=0))
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    vertices = matcher.vertex_ids[:8]
    with nn.no_grad():
        image_embeds = matcher._encode_images(range(16))
    positives = np.arange(len(vertices))
    # lr=0: every step sees the same parameters, so calls are comparable
    optimizer = nn.AdamW(matcher._trainable_parameters(), lr=0.0)

    def step():
        optimizer.zero_grad()
        loss = batch_contrastive_loss(matcher.encode_vertices(vertices),
                                      image_embeds,
                                      matcher.config.temperature, positives)
        loss.backward()
        nn.clip_grad_norm(optimizer.params, 5.0)
        optimizer.step()

    def query():
        with nn.no_grad():
            matcher.encode_vertices(vertices[:1])

    paths["nn_fwd_bwd"] = _bench_calls("nn_fwd_bwd", step, 100, repeats)
    paths["soft_text_query"] = _bench_calls("soft_text_query", query, 400,
                                            repeats)


#: images behind the ``score_tile_hard`` row in quick mode: enough that
#: rebuilding the image operand per call would cost more than the GEMM
TILE_WORLD_IMAGES_PER_CONCEPT = 400


def tile_world_matcher(bundle, dataset, quick: bool) -> CrossEM:
    """The hard-prompt matcher behind the serving rows, caches warm."""
    if quick:
        dataset = build_attribute_dataset(
            bundle.universe, name="bench-tile", concept_indices=range(10),
            images_per_concept=TILE_WORLD_IMAGES_PER_CONCEPT, seed=7)
    matcher = CrossEM(bundle, CrossEMConfig(prompt="hard", epochs=0))
    matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
    matcher.score()  # populate both caches
    return matcher


def bench_score_tile(matcher: CrossEM, repeats: int, paths: dict) -> None:
    """``score_tile_hard``: the scoring call the answer table is built
    from — ``CrossEM.score`` on one 8-row tile of hard prompts —
    against the per-call operand rebuild it used to do (index array
    over the whole repository, then a gather copy of the image matrix).
    Both sides return equal bits (``tests/core/test_frozen_operands.py``);
    the speedup is what the zero-copy operand buys and falls to 1 if the
    copy comes back."""
    tile = list(matcher.vertex_ids[:8])
    calls = 600

    def rebuilt_operand():
        text = matcher._text_queries(tile)
        copied = matcher._encode_images(range(len(matcher.images))).numpy()
        return text @ copied.T

    entry = _bench_pair(
        "score_tile_hard",
        lambda: [matcher.score(tile) for _ in range(calls)],
        lambda: [rebuilt_operand() for _ in range(calls)],
        repeats)
    entry.update(calls=calls, images=len(matcher.images),
                 per_call_ms=1e3 * entry["optimized_s"] / calls)
    paths["score_tile_hard"] = entry


#: served hits behind the ``serve_table_hit`` row
TABLE_HITS = 1000
#: requests behind each ``gemm_calls`` count, ``top_k`` drawn uniformly
#: over ``1..|I|``
DEEP_DRAWS = 100


def _gemm_calls(matcher: CrossEM, answer) -> float:
    """The matcher's ``score`` / ``score_topk`` calls per 100 requests
    whose ``top_k`` is drawn over every depth, ``1..|I|``, each answered
    by ``answer(request)``.  Every request is a slice of the answer
    table ``warmup()`` built, so the count is 0; if any depth is ever
    scored at request time again it becomes (nearly) 100, which is what
    CI's ``obs diff`` step watches (the count repeats exactly: the draws
    are seeded)."""
    vertices = matcher.vertex_ids
    rng = np.random.default_rng(0)
    requests = [{"id": i, "vertex": vertices[i % len(vertices)],
                 "top_k": int(rng.integers(1, len(matcher.images) + 1))}
                for i in range(DEEP_DRAWS)]
    calls = [0]
    for name in ("score", "score_topk"):
        real = getattr(matcher, name)

        def counted(*args, _real=real, **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)

        setattr(matcher, name, counted)
    try:
        for request in requests:
            assert answer(request)["ok"]
    finally:
        del matcher.score, matcher.score_topk
    return 100.0 * calls[0] / len(requests)


def bench_table_hit(matcher: CrossEM, repeats: int, paths: dict) -> None:
    """``serve_table_hit``: an in-process ``MatchService.handle_batch``
    of one request with ``top_k <= 16`` (the ``table`` op's head) on the
    ``score_tile_hard`` world, in absolute seconds, beside ``gemm_calls``
    (:func:`_gemm_calls`, over requests of every depth)."""
    service = MatchService(matcher).warmup()
    vertices = matcher.vertex_ids
    requests = [{"id": i, "vertex": vertices[i % len(vertices)],
                 "top_k": 1 + i % TABLE_K} for i in range(TABLE_HITS)]
    total = _best_of(lambda: [service.handle_batch([r]) for r in requests],
                     repeats, "serve_table_hit")
    entry = {"optimized_s": total, "calls": len(requests),
             "per_call_ms": 1e3 * total / len(requests),
             "gemm_calls": _gemm_calls(
                 matcher, lambda r: service.handle_batch([r])[0])}
    print(f"  {'serve_table_hit':28s} {entry['per_call_ms']:9.3f} ms/call "
          f"({entry['gemm_calls']:.0f} GEMM calls per 100 requests)")
    paths["serve_table_hit"] = entry


#: lone hits behind the ``serve_socket_hit`` row (per repeat)
SOCKET_HITS = 200


def bench_socket_hit(matcher: CrossEM, repeats: int, paths: dict) -> None:
    """``serve_socket_hit``: lone requests — one outstanding at a time,
    ``top_k <= 16`` — over a real :class:`NetServer` socket on the
    ``score_tile_hard`` world, beside ``gemm_calls``
    (:func:`_gemm_calls`, over requests of every depth sent down the
    same socket).  Every request is answered where its line is read
    (the seconds are for the reader, and deliberately not named
    ``optimized_s``: a socket round trip is too noisy on a shared
    runner to gate)."""
    server = NetServer(MatchService(matcher).warmup(), NetServeConfig())
    ready = threading.Event()
    thread = threading.Thread(
        target=server.run, daemon=True,
        kwargs={"install_signals": False, "ready": lambda _: ready.set()})
    thread.start()
    assert ready.wait(timeout=60), "bench server never became ready"
    vertices = matcher.vertex_ids
    lines = [encode_response({"id": i, "vertex": vertices[i % len(vertices)],
                              "top_k": 1 + i % TABLE_K})
             for i in range(SOCKET_HITS)]
    with socket.create_connection(server.bound, timeout=30) as sock:
        answers = sock.makefile("rb")

        def lone_hits():
            for line in lines:
                sock.sendall(line)
                assert json.loads(answers.readline())["ok"]

        def ask(request):
            sock.sendall(encode_response(request))
            return json.loads(answers.readline())

        lone_hits()  # warm
        total = _best_of(lone_hits, repeats, "serve_socket_hit")
        gemm_calls = _gemm_calls(matcher, ask)
    server.trigger_drain()
    thread.join(timeout=30)
    entry = {"seconds": total, "calls": len(lines),
             "per_call_ms": 1e3 * total / len(lines),
             "gemm_calls": gemm_calls}
    print(f"  {'serve_socket_hit':28s} {entry['per_call_ms']:9.3f} ms/call "
          f"({entry['gemm_calls']:.0f} GEMM calls per 100 requests)")
    paths["serve_socket_hit"] = entry


#: images per concept behind the ``train_epoch_plus`` row in quick mode:
#: with 800 images for 10 vertices a pseudo-positive rarely lands in a
#: given 8 x 16 batch, so ~9 batches in 10 have empty X_p — the regime
#: where paying for discarded forwards would show
EPOCH_WORLD_IMAGES_PER_CONCEPT = 80


def bench_train_epoch(bundle, dataset, quick: bool, repeats: int,
                      paths: dict) -> None:
    """``train_epoch_plus``: one ``CrossEMPlus`` epoch end to end
    (pseudo-labelling + the batch loop), in absolute seconds, beside the
    two counts that say what the seconds bought: the share of batches
    with non-empty X_p, and how often ``encode_vertices`` — prompt +
    text tower forward — ran.  A batch with empty X_p is skipped before
    the encoders, so ``encode_calls`` is the productive batches plus the
    labelling chunks; if empty batches are ever paid for again it jumps
    to the batch count, which is what CI's ``obs diff`` step watches
    (the count repeats exactly; the seconds are for the reader)."""
    if quick:
        dataset = build_attribute_dataset(
            bundle.universe, name="bench-epoch", concept_indices=range(10),
            images_per_concept=EPOCH_WORLD_IMAGES_PER_CONCEPT, seed=7)
    best = None
    for _ in range(repeats):
        matcher = CrossEMPlus(bundle, CrossEMPlusConfig(epochs=1, lr=1e-3))
        calls = [0]
        encode = matcher.encode_vertices

        def counted(vertex_ids):
            calls[0] += 1
            return encode(vertex_ids)

        matcher.encode_vertices = counted
        batches = registry().counter("train.batches").value
        matcher.fit(dataset.graph, dataset.images, dataset.entity_vertices)
        entry = {
            "optimized_s": matcher.efficiency.seconds_per_epoch,
            "images": len(dataset.images),
            "batches": registry().counter("train.batches").value - batches,
            "productive_batch_share":
                registry().gauge("train.productive_batch_share").value,
            "encode_calls": calls[0],
        }
        if best is None or entry["optimized_s"] < best["optimized_s"]:
            best = entry
    print(f"  {'train_epoch_plus':28s} {best['optimized_s'] * 1e3:9.2f} ms "
          f"({best['batches']} batches, productive share "
          f"{best['productive_batch_share']:.3f}, "
          f"{best['encode_calls']} encode_vertices calls)")
    paths["train_epoch_plus"] = best


def _load_scene(quick: bool):
    if quick:
        bundle = get_pretrained_bundle(kind="bird", num_concepts=16, seed=7,
                                       config=QUICK_CONFIG)
        dataset = build_attribute_dataset(bundle.universe, name="bench-tiny",
                                          concept_indices=range(10),
                                          images_per_concept=2, seed=7)
    else:
        bundle = fb_bundle()
        dataset = load_fbimg("fb10k")
    return bundle, dataset


def _synthetic_world(num_images: int, dim: int, num_concepts: int,
                     num_queries: int, seed: int = 0):
    """Clustered unit-norm embeddings mimicking a frozen image tower.

    Images scatter around shared concept centres with noise small
    enough (sigma * sqrt(dim) < 1) that the concept structure survives
    normalization — the regime IVF's coarse cells exploit.  Queries are
    drawn around the same centres, like text prompts for seen concepts.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_concepts, dim)).astype(np.float32)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    owner = rng.integers(0, num_concepts, size=num_images)
    images = centers[owner] + 0.08 * rng.standard_normal(
        (num_images, dim)).astype(np.float32)
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    probe = centers[rng.integers(0, num_concepts, size=num_queries)]
    queries = probe + 0.06 * rng.standard_normal(
        (num_queries, dim)).astype(np.float32)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return np.ascontiguousarray(images), np.ascontiguousarray(queries)


#: the operating point reported as the headline ``index`` path — chosen
#: from the sweep below as the smallest nprobe holding recall@10 >= 0.95
HEADLINE_NPROBE = 4


def bench_index(quick: bool, repeats: int, paths: dict) -> None:
    """Recall@k-vs-speedup sweep: IVF-PQ search against the brute GEMM.

    The brute side is exactly what ``match_pairs`` runs without an
    index (one ``queries @ images.T`` GEMM + deterministic top-k); the
    optimized side is ``IVFPQIndex.search`` at each ``nprobe``.  Every
    sweep point lands in the report as ``index_nprobe<n>`` with both
    ``speedup`` and ``recall_loss_at10`` (= 1 - recall@10), so the obs
    differ can gate accuracy and speed from the same artifact.
    """
    k = 10
    if quick:
        images, queries = _synthetic_world(20_000, 64, 256, 64)
        config = IVFPQConfig(nlist=128, nprobe=HEADLINE_NPROBE, pq_m=16,
                             refine=16, train_sample=8192,
                             kmeans_iterations=10)
        sweep = (1, 2, 4, 8)
    else:
        images, queries = _synthetic_world(120_000, 64, 1024, 128)
        config = IVFPQConfig(nlist=512, nprobe=HEADLINE_NPROBE, pq_m=16,
                             refine=16, train_sample=32_768)
        sweep = (1, 2, 4, 8, 16)
    print(f"  index world: {images.shape[0]} images x {images.shape[1]}d, "
          f"{queries.shape[0]} queries, k={k}")

    def brute():
        scores = queries @ images.T
        order = deterministic_topk_rows(scores, k)
        return order, np.take_along_axis(scores, order, axis=1)

    oracle_ids, _ = brute()
    brute()  # warm BLAS
    reference_s = _best_of(brute, repeats, "index/brute")

    with span("bench/index/build") as timer:
        index = build_ivfpq(images, config)
    print(f"  index build: {timer.elapsed:.2f} s "
          f"(nlist={config.nlist}, pq_m={config.pq_m})")
    paths["index_build"] = {"build_s": timer.elapsed}
    # The build's dominant call: k-means over one PQ subspace (a
    # non-contiguous 4-column slice, 256 codewords), against the
    # per-cluster loop it replaced; CI gates its ``speedup`` with
    # ``obs diff --watch-drop``.
    subspace = images[:8192, :4]
    paths["kmeans_pq"] = _bench_pair(
        "kmeans_pq",
        lambda: kmeans(subspace, 256, rng=0, iterations=10),
        lambda: kmeans_loop(subspace, 256, rng=0, iterations=10),
        repeats)

    # The exhaustive cut alone, on index_bulk's shape (256 x 40,000,
    # k = 10), against the per-row loop it replaced; CI gates its
    # ``speedup`` with ``obs diff --watch-drop``.
    cut_scores = np.random.default_rng(1).standard_normal(
        (256, 40_000)).astype(np.float32)
    paths["topk_rows"] = _bench_pair(
        "topk_rows",
        lambda: deterministic_topk_rows(cut_scores, k),
        lambda: topk_oracle.deterministic_topk_rows(cut_scores, k),
        repeats)

    # The probed search kernel alone, on index_bulk's shape (40,000 x 64,
    # 256 queries, nlist 256, nprobe 4, pq_m 16, refine 16), against the
    # per-query path it replaced; CI gates its ``speedup`` with
    # ``obs diff --watch-drop``.
    bulk_images, bulk_queries = _synthetic_world(40_000, 64, 512, 256)
    bulk = build_ivfpq(bulk_images, IVFPQConfig(
        nlist=256, nprobe=4, pq_m=16, refine=16, train_sample=8192,
        kmeans_iterations=10))
    paths["probed_search"] = _bench_pair(
        "probed_search",
        lambda: bulk._search_probed(bulk_queries, k, 4, bulk.refine),
        lambda: ivfpq_search.search_probed(bulk, bulk_queries, k, 4,
                                           bulk.refine),
        repeats)

    oracle_sets = [set(row.tolist()) for row in oracle_ids]
    for nprobe in sweep:
        index.search(queries, k, nprobe=nprobe)  # warm
        optimized_s = _best_of(
            lambda: index.search(queries, k, nprobe=nprobe),
            repeats, f"index/nprobe{nprobe}")
        result = index.search(queries, k, nprobe=nprobe)
        hits = sum(len(oracle_sets[q] & set(result.ids[q].tolist()))
                   for q in range(len(oracle_sets)))
        recall = hits / (len(oracle_sets) * k)
        entry = {"optimized_s": optimized_s, "reference_s": reference_s,
                 "speedup": reference_s / optimized_s,
                 "recall_at10": recall,
                 "recall_loss_at10": 1.0 - recall}
        paths[f"index_nprobe{nprobe}"] = entry
        print(f"  index nprobe={nprobe:<3d} {optimized_s * 1e3:9.2f} ms vs "
              f"{reference_s * 1e3:9.2f} ms -> {entry['speedup']:6.2f}x "
              f"@ recall@10 {recall:.3f}")
    paths["index"] = dict(paths[f"index_nprobe{HEADLINE_NPROBE}"])


def run(quick: bool, repeats: int, index_only: bool = False) -> dict:
    mode = "quick" if quick else "full"
    if index_only:
        results = {"mode": mode, "dataset": "synthetic-index-world",
                   "paths": {}}
        print(f"mode={mode} (index sweep only)")
        bench_index(quick, repeats, results["paths"])
        return results
    bundle, dataset = _load_scene(quick)
    print(f"mode={mode} dataset={dataset.name} "
          f"vertices={len(dataset.entity_vertices)} "
          f"images={len(dataset.images)}")
    results: dict = {"mode": mode, "dataset": dataset.name,
                     "num_vertices": len(dataset.entity_vertices),
                     "num_images": len(dataset.images), "paths": {}}
    paths = results["paths"]

    graph, vertices = dataset.graph, dataset.entity_vertices
    properties, patches = property_closeness(graph, vertices, dataset.images,
                                             bundle.minilm, bundle.aligner)

    paths["pairwise_proximity"] = _bench_pair(
        "pairwise_proximity",
        lambda: pairwise_proximity(graph, vertices, properties, patches),
        lambda: pairwise_proximity_reference(graph, vertices, properties,
                                             patches),
        repeats)

    proximity = pairwise_proximity(graph, vertices, properties, patches)
    k = min(8, max(2, len(vertices) // 8))
    paths["kmeans"] = _bench_pair(
        "kmeans",
        lambda: kmeans(proximity, k, rng=0),
        lambda: kmeans_reference(proximity, k, rng=0),
        repeats)

    corpus = build_text_corpus(bundle.universe, seed=7)
    texts = corpus[:400] if quick else corpus
    paths["embed_texts"] = _bench_pair(
        "embed_texts",
        lambda: bundle.minilm.embed_texts(texts),
        lambda: embed_texts_reference(bundle.minilm, texts),
        repeats)

    cooc_texts = corpus[:120] if quick else corpus[:600]
    paths["pretrain_cooccurrence"] = _bench_pair(
        "pretrain_cooccurrence",
        lambda: bundle.minilm._cooccurrence(cooc_texts),
        lambda: cooccurrence_reference(bundle.minilm, cooc_texts),
        repeats)

    matcher = CrossEM(bundle, CrossEMConfig(prompt="hard", epochs=0))
    matcher.fit(graph, dataset.images, vertices)
    matcher.score()  # populate both caches

    def _reference_epoch():
        chunks = [encode_vertices_reference(
            matcher, matcher.vertex_ids[s:s + 32]).numpy()
            for s in range(0, len(matcher.vertex_ids), 32)]
        return np.concatenate(chunks, axis=0)

    with nn.no_grad():
        paths["hard_prompt_epoch"] = _bench_pair(
            "hard_prompt_epoch",
            lambda: matcher._encode_all_vertices(),
            _reference_epoch,
            repeats)

    image_indices = list(range(len(matcher.images)))
    pixel_stack = lambda s, e: np.stack(
        [matcher.images[i].pixels for i in range(s, e)])

    def _reference_images():
        with nn.no_grad():
            chunks = [matcher.clip.encode_image(
                pixel_stack(s, min(s + 64, len(image_indices)))).numpy()
                for s in range(0, len(image_indices), 64)]
        return np.concatenate(chunks, axis=0)

    paths["image_encode"] = _bench_pair(
        "image_encode",
        lambda: matcher._encode_images(image_indices).numpy(),
        _reference_images,
        repeats)

    tile_matcher = tile_world_matcher(bundle, dataset, quick)
    bench_score_tile(tile_matcher, repeats, paths)
    bench_table_hit(tile_matcher, repeats, paths)
    bench_socket_hit(tile_matcher, repeats, paths)
    bench_engine(bundle, dataset, repeats, paths)
    bench_train_epoch(bundle, dataset, quick, repeats, paths)
    bench_index(quick, repeats, paths)

    return results


#: speedups beyond this are "saturated" — the optimized path is a cache
#: hit measured in microseconds, where timer noise swamps the ratio; the
#: regression check clamps both sides here so saturated paths only fail
#: when they stop being effectively free.
SATURATION_CAP = 50.0


def compare_baseline(results: dict, baseline_path: Path,
                     tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, entry in baseline.get("paths", {}).items():
        if "speedup" not in entry:  # e.g. index_build reports only build_s
            continue
        if name == "index" or name.startswith("index_nprobe"):
            # the sweep's speedup is over the brute GEMM, so it moves
            # whenever that reference does; CI watches its recall instead
            continue
        current = results["paths"].get(name)
        if current is None:
            failures.append(f"{name}: missing from current run")
            continue
        ratio = (min(entry["speedup"], SATURATION_CAP)
                 / max(min(current["speedup"], SATURATION_CAP), 1e-12))
        flag = "REGRESSED" if ratio > tolerance else "ok"
        print(f"  {name:28s} baseline {entry['speedup']:6.2f}x "
              f"now {current['speedup']:6.2f}x ({flag})")
        if ratio > tolerance:
            failures.append(
                f"{name}: speedup fell {ratio:.2f}x below baseline "
                f"({entry['speedup']:.2f}x -> {current['speedup']:.2f}x)")
    if failures:
        print("\nbenchmark regression check FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("\nbenchmark regression check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny bundle, CI-smoke scale")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_hotpaths.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed baseline JSON to compare speedups "
                             "against")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="fail when a speedup falls this many times "
                             "below its baseline value")
    parser.add_argument("--profile", action="store_true",
                        help="print the telemetry span profile at the end")
    parser.add_argument("--index-only", action="store_true",
                        help="run only the ANN index sweep (CI index job)")
    parser.add_argument("--recall-floor", type=float, default=None,
                        metavar="R",
                        help="fail if the headline index recall@10 falls "
                             "below this")
    args = parser.parse_args(argv)

    results = run(args.quick, args.repeats, index_only=args.index_only)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    status = 0
    if args.recall_floor is not None:
        recall = results["paths"]["index"]["recall_at10"]
        if recall < args.recall_floor:
            print(f"\nrecall floor FAILED: headline recall@10 {recall:.3f} "
                  f"< {args.recall_floor}")
            status = 1
        else:
            print(f"\nrecall floor ok: headline recall@10 {recall:.3f} "
                  f">= {args.recall_floor}")
    if args.baseline is not None:
        print(f"\ncomparing against baseline {args.baseline}")
        status = compare_baseline(results, args.baseline, args.tolerance)
    if args.profile:
        report = format_profile()
        if report:
            print("\n--- span profile ---")
            print(report)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
