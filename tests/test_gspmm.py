"""Edge-weighted gspmm tests (repro.autograd.kernels).

``gspmm(block, "mul", "sum", lhs, rhs)`` with one weight per edge and head
runs as one CSR matmul whose stored values are the weights.  The contract
is bit-identity with the reference composition it replaces — gather
``lhs[u] * rhs[..., None]`` and scatter-sum through ``block.scatter`` —
forward and for both gradients, on awkward edge lists, in both dtypes, plus
capture = dynamic for the attention layers and a memory bound showing no
``(E, H, F)`` array is ever built.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.autograd import Tensor, capture, kernels
from repro.autograd.dtype import compute_dtype_scope
from repro.autograd.functional import _scatter_sum, segment_softmax_array
from repro.datasets.generators import make_hetero_sbm
from repro.datasets.registry import load_dataset
from repro.graph.hetero import HeteroGraph
from repro.graph.splits import random_split
from repro.nn.data import GraphTensors
from repro.nn.layers import GATConv
from repro.nn.model_zoo import build_model
from repro.tasks.trainer import NodeClassificationTrainer, TrainConfig


def _edges(kind, num_nodes, rng):
    """Edge lists the CSR lowering must not reorder or merge."""
    u = rng.integers(0, num_nodes, size=60)
    v = rng.integers(0, num_nodes, size=60)
    if kind == "duplicates":
        u, v = np.concatenate([u, u[:15], u[:5]]), np.concatenate([v, v[:15], v[:5]])
    elif kind == "zero-in-degree":
        v = v % (num_nodes - 4)          # the last four nodes receive nothing
        u[:3] = num_nodes - 1            # ... but do send
    order = rng.permutation(u.shape[0])  # shuffled, not CSR order
    return u[order], v[order]


def _reference(block, lhs, rhs, grad):
    """The gather → broadcast-mul → scatter composition, forward and backward."""
    weight = rhs.reshape(rhs.shape + (1,))
    dtype = lhs.dtype
    out = _scatter_sum(lhs[block.u] * weight, block.v, block.num_nodes,
                       block.scatter("v", dtype))
    grad_edges = grad[block.v]
    grad_lhs = _scatter_sum(grad_edges * weight, block.u, block.num_nodes,
                            block.scatter("u", dtype))
    grad_rhs = (grad_edges * lhs[block.u]).sum(axis=-1, keepdims=True)
    return out, grad_lhs, grad_rhs.reshape(rhs.shape)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("heads,lhs_ndim", [(1, 2), (1, 3), (4, 3)])
@pytest.mark.parametrize("kind", ["shuffled", "duplicates", "zero-in-degree"])
def test_weighted_gspmm_is_bit_identical_to_scatter(kind, heads, lhs_ndim, dtype):
    rng = np.random.default_rng([heads, lhs_ndim, len(kind)])
    num_nodes, features = 12, 5
    block = kernels.RelationBlock(*_edges(kind, num_nodes, rng), num_nodes)
    head_shape = (heads,) if lhs_ndim == 3 else ()
    with compute_dtype_scope(np.dtype(dtype).name):
        lhs = Tensor(rng.normal(size=(num_nodes,) + head_shape + (features,)),
                     requires_grad=True)
        rhs = Tensor(rng.random((block.num_edges,) + head_shape), requires_grad=True)
        grad = rng.normal(size=lhs.shape).astype(dtype)
        out = kernels.gspmm(block, "mul", "sum", lhs, rhs)
        out.backward(grad)
    want_out, want_lhs, want_rhs = _reference(block, lhs.data, rhs.data, grad)
    for got, want in ((out.data, want_out), (lhs.grad, want_lhs), (rhs.grad, want_rhs)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        kernels.gspmm_forward(block, "mul", "sum", lhs.data, rhs.data), want_out)
    if kind == "zero-in-degree":
        assert not out.data[-4:].any()


def test_grad_rhs_chunks_match_one_pass(monkeypatch):
    """Chunking the per-edge dot changes nothing, down to one edge a chunk."""
    rng = np.random.default_rng(0)
    block = kernels.RelationBlock(*_edges("duplicates", 12, rng), 12)
    lhs = rng.normal(size=(12, 4, 8))
    grad = rng.normal(size=(12, 4, 8))
    whole = kernels._weighted_grad_rhs(block, grad, lhs)
    monkeypatch.setattr(kernels, "_DOT_CHUNK_BYTES", 1)
    np.testing.assert_array_equal(kernels._weighted_grad_rhs(block, grad, lhs), whole)


@pytest.mark.parametrize("kind", ["shuffled", "zero-in-degree"])
def test_segment_softmax_matches_maximum_at(kind):
    """The reduceat group max gives the same softmax as ``np.maximum.at``."""
    rng = np.random.default_rng(1)
    block = kernels.RelationBlock(*_edges(kind, 12, rng), 12)
    scores = rng.normal(size=(block.num_edges, 4)) * 30
    group_max = np.full((12, 4), -np.inf)
    np.maximum.at(group_max, block.v, scores)
    group_max[~np.isfinite(group_max)] = 0.0
    exp = np.exp(scores - group_max[block.v])
    denom = np.maximum(_scatter_sum(exp, block.v, 12, None), 1e-16)
    want = exp / denom[block.v]
    for aggregate in (None, block.scatter("v", scores.dtype)):
        np.testing.assert_array_equal(
            segment_softmax_array(scores, block.v, 12, aggregate), want)


@pytest.mark.parametrize("name,relations", [("gat", 0), ("gat", 3), ("rgat", 1),
                                            ("rgat", 3)])
def test_attention_capture_matches_dynamic_without_bailouts(name, relations,
                                                            tiny_split_graph):
    """GAT aggregates over the union edge list, also on typed graphs."""
    graph = tiny_split_graph
    if relations == 1:
        graph = HeteroGraph.from_homogeneous(graph)
    elif relations > 1:
        graph = random_split(make_hetero_sbm(num_nodes=90, num_classes=3,
                                             num_features=8, num_relations=relations,
                                             num_node_types=2, seed=1), seed=0)
    data = GraphTensors.from_graph(graph)

    def train(capture_mode):
        capture.reset_engine_stats()
        model = build_model(name, data.num_features, graph.num_classes,
                            hidden=16, seed=3)
        config = TrainConfig(lr=0.02, max_epochs=6, patience=50, seed=3,
                             capture=capture_mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error", capture.CaptureBailoutWarning)
            result = NodeClassificationTrainer(config).train(
                model, data, graph.labels, graph.mask_indices("train"),
                graph.mask_indices("val"))
        return result, model

    dynamic, dynamic_model = train(False)
    captured, captured_model = train(True)
    assert captured.capture_used
    assert capture.engine_stats()["bailouts"] == 0
    assert dynamic.history == captured.history
    np.testing.assert_array_equal(dynamic_model.forward_inference(data),
                                  captured_model.forward_inference(data))


def test_gat_inference_builds_no_edge_feature_array():
    """GATConv.infer peaks below one (E, H, F) array on a graph where it is ≥ 4 MB."""
    data = GraphTensors.from_graph(load_dataset("kddcup-D", scale=0.3, seed=0))
    heads, head_dim = 4, 8
    layer = GATConv(data.num_features, heads * head_dim, heads=heads,
                    rng=np.random.default_rng(0))
    x = data.features.data
    edge_feature_bytes = data.edge_index.shape[1] * heads * head_dim * x.itemsize
    assert edge_feature_bytes >= 4 << 20
    layer.infer(x, data)  # build the cached scatter and aggregation structures
    tracemalloc.start()
    try:
        layer.infer(x, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < edge_feature_bytes
