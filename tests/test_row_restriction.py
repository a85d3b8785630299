"""Row-restricted forward passes (``rows=``) and the row views behind them.

The contract: ``model(data, rows=R)`` and ``model.forward_inference(data,
rows=R)`` return rows ``R`` byte-equal to the full pass — the last one-hop
conv of a stacked model aggregates over ``data.restrict_rows(R)`` and every
other model ignores ``rows`` — and training on ``rows=train`` gives the
same gradients, so trainer trajectories are unchanged.  Per-edge dropout on
a row view draws the full edge tensor's uniforms and keeps its positions,
so the RNG stream and every kept mask match the full pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import capture, functional as F
from repro.autograd.dtype import compute_dtype_scope
from repro.autograd.functional import _segment_max
from repro.autograd.tensor import Tensor
from repro.graph.hetero import HeteroGraph, HeteroGraphTensors
from repro.nn.data import GraphTensors
from repro.nn.model_zoo import available_models, build_model
from repro.nn.models.base import StackedConvModel
from repro.tasks.trainer import NodeClassificationTrainer, TrainConfig

MODELS = available_models()


def _model(name, data, num_classes, seed=3):
    return build_model(name, data.num_features, num_classes, hidden=16, seed=seed)


def _rows(graph):
    return np.sort(graph.mask_indices("train"))


# ----------------------------------------------------------------------
# Row views
# ----------------------------------------------------------------------
def test_row_view_keeps_shapes_and_empties_other_rows(tiny_split_graph, tiny_data):
    rows = _rows(tiny_split_graph)
    view = tiny_data.restrict_rows(rows)
    assert view.num_nodes == tiny_data.num_nodes
    assert view.features is tiny_data.features
    outside = np.setdiff1d(np.arange(tiny_data.num_nodes), rows)
    for kind in ("sym", "rw", "raw"):
        full = tiny_data.propagation(kind).matrix
        restricted = view.propagation(kind).matrix
        assert restricted.shape == full.shape
        assert (restricted[rows] != full[rows]).nnz == 0
        assert restricted[outside].nnz == 0
    # Kept edges: exactly those into ``rows``, in their original order.
    kept = np.flatnonzero(np.isin(tiny_data.edge_index[1], rows))
    assert np.array_equal(view.edge_index, tiny_data.edge_index[:, kept])
    assert np.array_equal(view.edge_weight, tiny_data.edge_weight[kept])
    # Per-edge dropout draws at the parent's edge count, keeps ``kept``.
    draw = view.edge_draw((kept.size, 4))
    assert draw["draw_shape"] == (tiny_data.edge_index.shape[1], 4)
    assert np.array_equal(draw["positions"], kept)
    assert tiny_data.edge_draw((tiny_data.edge_index.shape[1], 4)) == {}
    assert view.edge_scatter("dst").shape == (tiny_data.num_nodes, kept.size)
    assert view.edge_block().num_edges == kept.size
    # Memoised on the parent, keyed by the rows' content.
    assert tiny_data.restrict_rows(rows.copy()) is view


def test_typed_view_returns_itself(tiny_split_graph):
    data = GraphTensors.from_graph(HeteroGraph.from_homogeneous(tiny_split_graph))
    assert isinstance(data, HeteroGraphTensors)
    assert data.restrict_rows(_rows(tiny_split_graph)) is data


# ----------------------------------------------------------------------
# Forward passes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("name", MODELS)
def test_rows_match_full_pass(name, dtype, tiny_split_graph):
    rows = _rows(tiny_split_graph)
    num_classes = tiny_split_graph.num_classes
    with compute_dtype_scope(dtype):
        data = GraphTensors.from_graph(tiny_split_graph)
        # Train mode: two same-seed models consume identical dropout streams.
        full_model = _model(name, data, num_classes)
        rows_model = _model(name, data, num_classes)
        full = full_model(data).data
        restricted = rows_model(data, rows=rows).data
        assert restricted.dtype == np.dtype(dtype)
        assert full[rows].tobytes() == restricted[rows].tobytes()
        assert full_model.rng.random() == rows_model.rng.random()

        full = full_model.forward_inference(data)
        restricted = rows_model.forward_inference(data, rows=rows)
        assert full[rows].tobytes() == restricted[rows].tobytes()


@pytest.mark.parametrize("name", MODELS)
def test_first_epoch_gradients_match(name, tiny_split_graph, tiny_data):
    rows = _rows(tiny_split_graph)
    labels = tiny_split_graph.labels

    def gradients(restrict):
        model = _model(name, tiny_data, tiny_split_graph.num_classes)
        logits = model(tiny_data, rows=rows if restrict else None)
        F.cross_entropy(logits[rows], labels[rows]).backward()
        return [None if p.grad is None else p.grad.tobytes()
                for p in model.parameters()]

    assert gradients(True) == gradients(False)


def test_stacked_models_restrict_only_a_one_hop_last_conv(tiny_split_graph, tiny_data):
    num_classes = tiny_split_graph.num_classes
    assert _model("gcn", tiny_data, num_classes).restricts_rows
    assert _model("gat", tiny_data, num_classes).restricts_rows
    assert not _model("tagcn", tiny_data, num_classes).restricts_rows
    assert not _model("gatedgnn", tiny_data, num_classes).restricts_rows
    assert not _model("appnp", tiny_data, num_classes).restricts_rows


def test_gatedgnn_receptive_field_counts_steps(tiny_data):
    model = build_model("gatedgnn", tiny_data.num_features, 3, hidden=8,
                        num_layers=2, num_steps=2)
    assert isinstance(model, StackedConvModel)
    assert model.receptive_field == 4


# ----------------------------------------------------------------------
# Training: capture = dynamic under rows, with no bailouts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("gcn", "gat", "gin", "graphsage-pool", "rgat"))
def test_capture_matches_dynamic_under_rows(name, tiny_split_graph, tiny_data):
    def train(capture_mode):
        model = _model(name, tiny_data, tiny_split_graph.num_classes)
        config = TrainConfig(lr=0.02, max_epochs=5, patience=50, seed=3,
                             capture=capture_mode)
        result = NodeClassificationTrainer(config).train(
            model, tiny_data, tiny_split_graph.labels,
            tiny_split_graph.mask_indices("train"),
            tiny_split_graph.mask_indices("val"))
        return result, [p.data.tobytes() for p in model.parameters()]

    dynamic, dynamic_params = train(False)
    before = capture.engine_stats()["bailouts"]
    captured, captured_params = train(True)
    assert capture.engine_stats()["bailouts"] == before
    assert captured.capture_used
    assert captured.history == dynamic.history
    assert captured_params == dynamic_params


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def test_dropout_draw_shape_keeps_full_stream_and_masks():
    x = np.random.default_rng(0).normal(size=(10, 3))
    positions = np.array([1, 4, 5, 9])
    full = F.dropout(Tensor(x), 0.4, rng=np.random.default_rng(7)).data
    rng = np.random.default_rng(7)
    kept = F.dropout(Tensor(x[positions]), 0.4, rng=rng, draw_shape=x.shape,
                     positions=positions).data
    assert kept.tobytes() == full[positions].tobytes()
    reference = np.random.default_rng(7)
    reference.random(x.shape)
    assert rng.random() == reference.random()


def test_segment_max_matches_maximum_at_with_trailing_empty_groups():
    index = np.array([0, 1, 2, 2, 2])
    values = np.array([1.0, 2.0, 3.0, 5.0, 9.0])
    assert _segment_max(values, index, 5).tolist() == [1.0, 2.0, 9.0, 0.0, 0.0]

    rng = np.random.default_rng(4)
    for num_groups in (1, 6, 40):
        index = rng.integers(0, max(num_groups // 2, 1), size=30)
        values = rng.normal(size=(30, 3))
        expected = np.full((num_groups, 3), -np.inf)
        np.maximum.at(expected, index, values)
        expected[~np.isfinite(expected)] = 0.0
        assert np.array_equal(_segment_max(values, index, num_groups), expected)
