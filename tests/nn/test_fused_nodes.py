"""Fused autograd nodes against the primitive compositions they replaced.

``repro.nn`` runs ``layer_norm``, ``gelu``, ``softmax``, ``log_softmax``,
``l2_normalize``, ``linear`` and attention as one graph node each.  The
compositions of :class:`~repro.nn.Tensor` primitives they replaced live
in ``tests/oracles/nn_composite.py``; this suite holds every fused node
to them bit for bit, values and gradients, wherever the node sits in a
graph, and to finite differences.
"""

import numpy as np
import pytest
from test_tensor import numeric_gradient

from repro import nn
from repro.clip.model import MiniCLIP
from repro.clip.pretrain import clip_contrastive_loss
from repro.core.crossem_plus import CrossEMPlus, CrossEMPlusConfig
from repro.nn import attention
from repro.nn import functional as F
from repro.nn.memory import MemoryTracker
from tests.oracles import nn_composite as oracle


def _rng(seed=0):
    return np.random.default_rng(seed)


def _normal(shape, seed=0, scale=1.0):
    return (scale * _rng(seed).standard_normal(shape)).astype(np.float32)


def _with_rows(array, value, *rows):
    array = array.copy()
    for row in rows:
        array[row] = value
    return array


def _key_mask(batch, length, padded_rows=(), seed=3):
    """Valid-key mask: random padding tails, ``padded_rows`` all padding."""
    lengths = _rng(seed).integers(1, length + 1, size=batch)
    mask = np.arange(length)[None, :] < lengths[:, None]
    mask[list(padded_rows)] = False
    return mask


def _masked_scores(shape, seed=0):
    """Attention-style logits: -1e9 on masked keys, one row all masked."""
    scores = _normal(shape, seed)
    scores[..., -2:] = -1e9
    scores[0, ..., 0, :] = -1e9
    return scores


class Op:
    """One fused op, its oracle, and the inputs it is exercised on."""

    def __init__(self, name, fused, composite, cases, numeric):
        self.name, self.fused, self.composite = name, fused, composite
        self.cases, self.numeric = cases, numeric


def _attend_pair(num_heads, mask):
    return (lambda q, k, v: attention._attend(q, k, v, num_heads, mask),
            lambda q, k, v: oracle.attend(q, k, v, num_heads, mask))


def _affine(dim, seed):
    return [1.0 + 0.1 * _normal((dim,), seed), 0.1 * _normal((dim,), seed + 1)]


def _linear_inputs(shape, out, seed, bias=True):
    arrays = [_normal(shape, seed),
              _normal((shape[-1], out), seed + 1, scale=0.2)]
    return arrays + ([_normal((out,), seed + 2)] if bias else [])


OPS = [
    Op("softmax", lambda x: F.softmax(x, axis=-1),
       lambda x: oracle.softmax(x, axis=-1),
       {"BLD": [_normal((8, 9, 48))],
        "batch1": [_normal((1, 9, 48), 1)],
        "masked_keys": [_masked_scores((8, 4, 9, 9))],
        "leading_dims": [_normal((2, 3, 5, 16), 2)],
        "length1_axis": [_normal((4, 1), 3)]},
       [_normal((2, 3, 5), 4)]),
    Op("softmax_axis0", lambda x: F.softmax(x, axis=0),
       lambda x: oracle.softmax(x, axis=0),
       {"BLD": [_normal((8, 9, 48))], "matrix": [_normal((7, 5), 1)]},
       [_normal((3, 4), 5)]),
    Op("log_softmax", lambda x: F.log_softmax(x, axis=1),
       lambda x: oracle.log_softmax(x, axis=1),
       {"logits": [_normal((8, 16), 0, 10.0)],
        "batch1": [_normal((1, 16), 1)],
        "BLD": [_normal((8, 9, 48), 2)],
        "masked_keys": [_masked_scores((8, 9, 9), 3)]},
       [_normal((3, 5), 6)]),
    Op("l2_normalize", F.l2_normalize, oracle.l2_normalize,
       {"embeddings": [_normal((8, 64))],
        "batch1": [_normal((1, 64), 1)],
        "zero_vector": [_with_rows(_normal((8, 64), 2), 0.0, 0, 5)],
        "leading_dims": [_normal((2, 3, 5, 16), 3)]},
       [_normal((3, 6), 7)]),
    Op("l2_normalize_axis0", lambda x: F.l2_normalize(x, axis=0),
       lambda x: oracle.l2_normalize(x, axis=0),
       {"matrix": [_normal((8, 64))]},
       [_normal((4, 3), 8)]),
    Op("layer_norm", F.layer_norm, oracle.layer_norm,
       {"BLD": [_normal((8, 9, 48))] + _affine(48, 1),
        "batch1": [_normal((1, 9, 48), 2)] + _affine(48, 3),
        "zero_vector": [_with_rows(_normal((8, 9, 48), 4), 0.0, (0, 0), (3, 8))]
        + _affine(48, 5),
        "constant_row": [_with_rows(_normal((8, 9, 48), 6), 2.5, (1, 1))]
        + _affine(48, 7),
        "leading_dims": [_normal((2, 3, 5, 16), 8)] + _affine(16, 9)},
       [_normal((2, 3, 6), 9)] + _affine(6, 10)),
    Op("gelu", F.gelu, oracle.gelu,
       {"BLD": [_normal((8, 9, 96))],
        "batch1": [_normal((1, 9, 96), 1)],
        "zero_vector": [_with_rows(_normal((8, 9, 96), 2), 0.0, (0, 0))],
        "saturated": [_normal((8, 96), 3, 8.0)],
        "leading_dims": [_normal((2, 3, 5, 16), 4)]},
       [_normal((2, 3, 5), 11)]),
    Op("linear", F.linear, oracle.linear,
       {"BLD": _linear_inputs((8, 9, 48), 48, 0),
        "widen": _linear_inputs((8, 9, 48), 96, 1),
        "batch1": _linear_inputs((1, 9, 48), 48, 2),
        "matrix": _linear_inputs((8, 112), 48, 3),
        "zero_vector": [_with_rows(_normal((8, 9, 48), 4), 0.0, (0, 0))]
        + _linear_inputs((8, 9, 48), 48, 4)[1:],
        "leading_dims": _linear_inputs((2, 3, 5, 16), 8, 5),
        "no_bias": _linear_inputs((8, 9, 48), 64, 6, bias=False)},
       _linear_inputs((2, 3, 5), 4, 12)),
    Op("attend", *_attend_pair(4, None),
       {"BLD": [_normal((8, 9, 48), s) for s in (0, 1, 2)],
        "batch1": [_normal((1, 9, 48), s) for s in (3, 4, 5)],
        "cross": [_normal((8, 5, 48), 6), _normal((8, 9, 48), 7),
                  _normal((8, 9, 48), 8)]},
       [_normal((2, 3, 8), s) for s in (13, 14, 15)]),
    Op("attend_masked", *_attend_pair(4, _key_mask(8, 9, padded_rows=(2,))),
       {"masked_keys": [_normal((8, 9, 48), s) for s in (0, 1, 2)],
        "zero_vector": [_with_rows(_normal((8, 9, 48), 3), 0.0, (0, 0)),
                        _normal((8, 9, 48), 4), _normal((8, 9, 48), 5)]},
       None),
    Op("attend_masked_small", *_attend_pair(2, _key_mask(2, 3, seed=4)),
       {}, [_normal((2, 3, 8), s) for s in (16, 17, 18)]),
]

OP_CASES = [pytest.param(op, case, id=f"{op.name}-{case}")
            for op in OPS for case in op.cases]


def interior_nodes(out):
    """Graph nodes with a backward closure reachable from ``out``."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return [n for n in seen.values() if n._backward is not None]


# -- how the op is placed in a graph ---------------------------------------
# The first input is consumed by the op and, in all placements but
# "leaf", by a second branch as well, so its gradient has several
# contributions whose float association the fused node must keep:
# before the op's own, after them, or none.
def _weigh(out, seed):
    return (out * nn.Tensor(_normal(out.shape, seed))).sum()


def place_leaf(op, inputs):
    return _weigh(op(*inputs), 100)


def place_branch_settled_first(op, inputs):
    hidden = inputs[0] * 1.5
    return _weigh(hidden, 101) + _weigh(op(hidden, *inputs[1:]), 100)


def place_branch_settled_last(op, inputs):
    hidden = inputs[0] * 1.5
    return _weigh(op(hidden, *inputs[1:]), 100) + _weigh(hidden, 101)


PLACEMENTS = [place_leaf, place_branch_settled_first, place_branch_settled_last]


def run(op, arrays, place):
    inputs = [nn.Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = place(op, inputs)
    loss.backward()
    return loss.data, [t.grad for t in inputs]


class TestAgainstComposite:
    @pytest.mark.parametrize("op,case", OP_CASES)
    def test_forward_bit_identical(self, op, case):
        arrays = op.cases[case]
        fused = op.fused(*map(nn.Tensor, arrays))
        composite = op.composite(*map(nn.Tensor, arrays))
        assert fused.data.dtype == np.float32
        assert np.array_equal(fused.data, composite.data)
        with nn.no_grad():
            frozen = op.fused(*[nn.Tensor(a, requires_grad=True)
                                for a in arrays])
        assert np.array_equal(frozen.data, composite.data)

    @pytest.mark.parametrize("place", PLACEMENTS, ids=lambda p: p.__name__)
    @pytest.mark.parametrize("op,case", OP_CASES)
    def test_backward_bit_identical(self, op, case, place):
        arrays = op.cases[case]
        loss, grads = run(op.fused, arrays, place)
        want_loss, want = run(op.composite, arrays, place)
        assert np.array_equal(loss, want_loss)
        for got, expected in zip(grads, want):
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("op,case", OP_CASES)
    def test_partial_requires_grad(self, op, case):
        """Frozen parameters (the tuning case): only the activation
        gradient is computed, and it does not change."""
        arrays = op.cases[case]
        _, full = run(op.fused, arrays, place_leaf)
        inputs = [nn.Tensor(a.copy(), requires_grad=(i == 0))
                  for i, a in enumerate(arrays)]
        place_leaf(op.fused, inputs).backward()
        assert np.array_equal(inputs[0].grad, full[0])
        assert all(t.grad is None for t in inputs[1:])


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize(
        "op", [pytest.param(op, id=op.name) for op in OPS if op.numeric])
    def test_gradient(self, op):
        arrays = [a.copy() for a in op.numeric]
        seed = nn.Tensor(_normal(op.fused(*map(nn.Tensor, arrays)).shape, 200))
        inputs = [nn.Tensor(a, requires_grad=True) for a in arrays]
        (op.fused(*inputs) * seed).sum().backward()
        for position, tensor in enumerate(inputs):
            def loss(array, position=position):
                trial = list(arrays)
                trial[position] = array
                return (op.fused(*map(nn.Tensor, trial)) * seed).sum().item()

            numeric = numeric_gradient(loss, arrays[position].copy(), eps=1e-2)
            # float32 central differences resolve about three digits
            np.testing.assert_allclose(tensor.grad, numeric,
                                       rtol=2e-2, atol=2e-2)


class TestOneNode:
    @pytest.mark.parametrize("op,case", OP_CASES)
    def test_records_one_node(self, op, case):
        inputs = [nn.Tensor(a, requires_grad=True) for a in op.cases[case]]
        with MemoryTracker() as tracker:
            out = op.fused(*inputs)
            assert tracker.live_count == 1
        assert interior_nodes(out) == [out]
        assert len(interior_nodes(op.composite(*inputs))) > 1 \
            or op.name == "linear" and case == "no_bias"

    @pytest.mark.parametrize("op,case", OP_CASES)
    def test_records_nothing_without_grad(self, op, case):
        arrays = op.cases[case]
        with nn.no_grad():
            out = op.fused(*[nn.Tensor(a, requires_grad=True) for a in arrays])
        assert interior_nodes(out) == [] and out._parents == ()
        assert not out.requires_grad
        constant = op.fused(*map(nn.Tensor, arrays))
        assert interior_nodes(constant) == [] and constant._parents == ()


# -- whole models ------------------------------------------------------------
def _clip_step(model, token_ids, mask, pixels):
    optimizer = nn.AdamW(model.parameters(), lr=2e-3)
    for _ in range(3):
        optimizer.zero_grad()
        loss = clip_contrastive_loss(model, model.encode_text(token_ids, mask),
                                     model.encode_image(pixels))
        loss.backward()
        nn.clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
    return model.state_dict()


class TestWholeModels:
    def test_pretraining_steps_bit_identical(self, monkeypatch):
        """Both CLIP towers, three optimizer steps: every weight equal.
        Shared activations (residual streams, the Q/K/V fan-out) get
        their gradient contributions in the primitive graph's order."""
        rng = _rng(9)
        token_ids = rng.integers(1, 50, size=(6, 7))
        token_ids[:, 5:] = 0
        mask = token_ids != 0
        pixels = rng.random((6, 24, 24, 3)).astype(np.float32)
        fused = _clip_step(MiniCLIP(50, rng=3), token_ids, mask, pixels)
        oracle.install(monkeypatch)
        composite = _clip_step(MiniCLIP(50, rng=3), token_ids, mask, pixels)
        assert fused.keys() == composite.keys()
        for name in fused:
            assert np.array_equal(fused[name], composite[name]), name

    def test_crossem_plus_fit_pinned(self, tiny_bundle, tiny_dataset,
                                     monkeypatch):
        """The quick world, tuned three epochs: Hits@1/5 and MRR are the
        parent commit's (measured there, before the ops were fused), and
        the scores are what the primitive graph gives."""
        def tuned():
            matcher = CrossEMPlus(tiny_bundle, CrossEMPlusConfig(
                epochs=3, lr=1e-3, seed=0))
            matcher.fit(tiny_dataset.graph, tiny_dataset.images,
                        tiny_dataset.entity_vertices)
            return matcher, matcher.evaluate(tiny_dataset)

        matcher, result = tuned()
        assert (result.hits1, result.hits5) == (30.0, 90.0)
        assert result.mrr == pytest.approx(0.550952380952381, abs=1e-12)
        oracle.install(monkeypatch)
        reference, expected = tuned()
        assert result == expected
        np.testing.assert_allclose(matcher.score(), reference.score(),
                                   rtol=0, atol=1e-5)
        assert np.array_equal(matcher.score(), reference.score())
        assert matcher.epoch_losses == reference.epoch_losses
