"""Heterogeneous-graph subsystem tests.

The anchor is the degenerate-case contract from the hetero design: a
single-relation :class:`~repro.graph.hetero.HeteroGraph` through
RGCN/RGAT-at-capacity-1 must be **bit-identical** to the homogeneous
GCN/GAT pipeline — same rng draws, same cached operators, same kernels-level
reductions — across both engines and every execution backend.  Around that:
gradchecks for the generalized gspmm/gsddmm kernels in both dtypes,
aggregated construction validation, shm publishing, capture recording
(never a silent fallback) and artifact round-trips.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from repro.autograd import Tensor, capture, gradcheck
from repro.autograd import kernels
from repro.autograd.dtype import compute_dtype_scope
from repro.core.config import AutoHEnsGNNConfig, ProxyConfig
from repro.core.pipeline import AutoHEnsGNN, FittedEnsemble
from repro.datasets.generators import make_hetero_sbm
from repro.datasets.registry import load_dataset
from repro.graph.hetero import HeteroGraph, HeteroGraphTensors
from repro.graph.shm import SharedGraphStore, clear_shared_cache
from repro.graph.splits import random_split
from repro.nn.data import GraphTensors
from repro.nn.model_zoo import build_model
from repro.tasks.trainer import NodeClassificationTrainer, TrainConfig


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hetero_graph():
    """A 4-relation, 2-type SBM with train/val/test masks."""
    return random_split(make_hetero_sbm(num_nodes=120, num_classes=3,
                                        num_features=12, num_relations=4,
                                        num_node_types=2, seed=2), seed=0)


@pytest.fixture(scope="module")
def hetero_data(hetero_graph):
    return GraphTensors.from_graph(hetero_graph)


@pytest.fixture(scope="module")
def small_block():
    """A canonical (row-major) relation block for kernel gradchecks."""
    rng = np.random.default_rng(0)
    import scipy.sparse as sp
    dense = rng.random((7, 7)) < 0.4
    np.fill_diagonal(dense, True)  # every node receives at least one edge
    return kernels.RelationBlock.from_structure(sp.csr_matrix(dense))


def _fast_config(**overrides):
    base = dict(pool_size=2, ensemble_size=2, max_layers=2, search_epochs=4,
                bagging_splits=2, hidden=16,
                candidate_models=["rgcn", "rgat"],
                proxy=ProxyConfig(dataset_fraction=0.5, bagging_rounds=1,
                                  hidden_fraction=0.5, max_epochs=4),
                seed=0, train=TrainConfig(lr=0.02, max_epochs=6, patience=5))
    base.update(overrides)
    return AutoHEnsGNNConfig(**base)


# ----------------------------------------------------------------------
# Kernel gradchecks (both dtypes)
# ----------------------------------------------------------------------
GSPMM_CASES = [(op, reduce) for op in kernels.GSPMM_OPS
               for reduce in kernels.GSPMM_REDUCES]


def _gspmm_inputs(block, op, rng, dtype=np.float64):
    lhs = rhs = None
    if op != "copy_rhs":
        lhs = Tensor(rng.normal(size=(block.num_nodes, 3)).astype(dtype),
                     requires_grad=True)
    if op != "copy_lhs":
        rhs = Tensor(rng.normal(size=(block.num_edges, 3)).astype(dtype),
                     requires_grad=True)
    return lhs, rhs


class TestGspmmGradcheck:
    @pytest.mark.parametrize("op,reduce", GSPMM_CASES)
    def test_float64(self, small_block, op, reduce):
        rng = np.random.default_rng(7)
        lhs, rhs = _gspmm_inputs(small_block, op, rng)
        inputs = [t for t in (lhs, rhs) if t is not None]
        weights = Tensor(rng.normal(size=(small_block.num_nodes, 3)))

        def func(*tensors):
            kw = {}
            if lhs is not None:
                kw["lhs"] = tensors[0]
            if rhs is not None:
                kw["rhs"] = tensors[-1]
            return (kernels.gspmm(small_block, op, reduce, **kw) * weights).sum()

        assert gradcheck(func, inputs)

    @pytest.mark.parametrize("op,reduce", [("mul", "sum"), ("add", "max"),
                                           ("copy_lhs", "mean")])
    def test_float32(self, small_block, op, reduce):
        # Central differences at float32 need a coarser eps/tolerance; the
        # ops are (piecewise) linear so this is still a real derivative check.
        rng = np.random.default_rng(11)
        lhs, rhs = _gspmm_inputs(small_block, op, rng, dtype=np.float32)
        inputs = [t for t in (lhs, rhs) if t is not None]
        weights = Tensor(rng.normal(size=(small_block.num_nodes, 3)).astype(np.float32))

        def func(*tensors):
            kw = {}
            if lhs is not None:
                kw["lhs"] = tensors[0]
            if rhs is not None:
                kw["rhs"] = tensors[-1]
            return (kernels.gspmm(small_block, op, reduce, **kw) * weights).sum()

        assert gradcheck(func, inputs, eps=1e-2, atol=5e-2, rtol=5e-2)

    def test_multi_head_broadcast(self, small_block):
        # (E, H) edge operand against (n, H, D) node operand — the GAT shape.
        rng = np.random.default_rng(3)
        lhs = Tensor(rng.normal(size=(small_block.num_nodes, 2, 3)), requires_grad=True)
        rhs = Tensor(rng.normal(size=(small_block.num_edges, 2)), requires_grad=True)
        weights = Tensor(rng.normal(size=(small_block.num_nodes, 2, 3)))
        assert gradcheck(
            lambda a, b: (kernels.gspmm(small_block, "mul", "sum", a, b) * weights).sum(),
            [lhs, rhs])

    def test_copy_lhs_sum_lowers_to_spmm_bitwise(self, small_block):
        # The degenerate (copy_lhs, sum) combination lowers to the cached CSR
        # aggregate operator; on a canonical row-major block that matmul is
        # bit-identical to the generic edge-order scatter.
        rng = np.random.default_rng(5)
        lhs = rng.normal(size=(small_block.num_nodes, 4))
        lowered = kernels.gspmm(small_block, "copy_lhs", "sum", Tensor(lhs))
        generic = kernels.gspmm_forward(small_block, "copy_lhs", "sum", lhs, None)
        np.testing.assert_array_equal(lowered.data, generic)


class TestGsddmmGradcheck:
    @pytest.mark.parametrize("op", kernels.GSDDMM_OPS)
    def test_float64(self, small_block, op):
        rng = np.random.default_rng(9)
        lhs = Tensor(rng.normal(size=(small_block.num_nodes, 3)), requires_grad=True)
        rhs = Tensor(rng.normal(size=(small_block.num_nodes, 3)), requires_grad=True)
        weight_shape = (small_block.num_edges,) if op == "dot" \
            else (small_block.num_edges, 3)
        weights = Tensor(rng.normal(size=weight_shape))
        inputs = []
        if op != "copy_rhs":
            inputs.append(lhs)
        if op != "copy_lhs":
            inputs.append(rhs)

        def func(*tensors):
            kw = {}
            if op != "copy_rhs":
                kw["lhs"] = tensors[0]
            if op != "copy_lhs":
                kw["rhs"] = tensors[-1]
            return (kernels.gsddmm(small_block, op, **kw) * weights).sum()

        assert gradcheck(func, inputs)

    @pytest.mark.parametrize("op", ["mul", "dot"])
    def test_float32(self, small_block, op):
        rng = np.random.default_rng(13)
        lhs = Tensor(rng.normal(size=(small_block.num_nodes, 3)).astype(np.float32),
                     requires_grad=True)
        rhs = Tensor(rng.normal(size=(small_block.num_nodes, 3)).astype(np.float32),
                     requires_grad=True)
        weight_shape = (small_block.num_edges,) if op == "dot" \
            else (small_block.num_edges, 3)
        weights = Tensor(rng.normal(size=weight_shape).astype(np.float32))
        assert gradcheck(
            lambda a, b: (kernels.gsddmm(small_block, op, a, b) * weights).sum(),
            [lhs, rhs], eps=1e-2, atol=5e-2, rtol=5e-2)

    def test_edge_target_operand(self, small_block):
        rng = np.random.default_rng(15)
        lhs = Tensor(rng.normal(size=(small_block.num_nodes, 3)), requires_grad=True)
        edge = Tensor(rng.normal(size=(small_block.num_edges, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(small_block.num_edges, 3)))
        assert gradcheck(
            lambda a, e: (kernels.gsddmm(small_block, "mul", a, e,
                                         rhs_target="e") * weights).sum(),
            [lhs, edge])


# ----------------------------------------------------------------------
# Typed construction and aggregated validation
# ----------------------------------------------------------------------
class TestHeteroGraphConstruction:
    def test_from_typed_builds_contiguous_layout(self):
        rng = np.random.default_rng(0)
        features = {"user": rng.normal(size=(8, 5)),
                    "item": rng.normal(size=(6, 5))}
        edges = {("user", "buys", "item"): np.array([[0, 1, 2], [0, 1, 2]]),
                 ("user", "follows", "user"): np.array([[0, 3], [4, 5]])}
        graph = HeteroGraph.from_typed(features, edges,
                                       labels={"user": np.arange(8) % 2})
        assert graph.num_nodes == 14
        assert graph.num_relations == 2
        assert graph.node_type_names == ("user", "item")
        assert graph.relation_names == ("user:buys:item", "user:follows:user")
        np.testing.assert_array_equal(graph.nodes_of_type("item"),
                                      np.arange(8, 14))
        # Item nodes are unlabelled.
        assert (graph.labels[8:] == -1).all()

    def test_from_typed_aggregates_all_problems(self):
        rng = np.random.default_rng(0)
        features = {"user": rng.normal(size=(4, 5)),
                    "item": rng.normal(size=(3, 4))}  # mismatched width
        edges = {("user", "buys", "itme"): np.array([[0], [0]]),     # typo
                 ("user", "rates", "item"): np.array([[0], [99]])}   # bad id
        with pytest.raises(ValueError) as excinfo:
            HeteroGraph.from_typed(features, edges)
        message = str(excinfo.value)
        assert message.startswith("invalid HeteroGraph:")
        assert "did you mean 'item'?" in message
        assert "share one feature width" in message
        assert "beyond the 3 nodes of type 'item'" in message

    def test_constructor_validates_endpoint_types(self):
        # An edge whose endpoints contradict the declared relation types.
        with pytest.raises(ValueError, match="contradict"):
            HeteroGraph(
                edge_index=np.array([[0], [1]]),
                features=np.zeros((2, 3)),
                labels=np.zeros(2, dtype=np.int64),
                node_type=np.array([0, 1]),
                edge_type=np.array([0]),
                node_type_names=("a", "b"),
                relations=(("a", "r", "a"),))

    def test_nodes_of_type_did_you_mean(self, hetero_graph):
        with pytest.raises(KeyError, match="did you mean 'type0'"):
            hetero_graph.nodes_of_type("typ0")

    def test_subgraph_preserves_types(self, hetero_graph):
        sub = hetero_graph.subgraph(np.arange(40))
        assert isinstance(sub, HeteroGraph)
        assert sub.relations == hetero_graph.relations
        assert sub.node_type.shape == (40,)
        assert sub.edge_type.shape == (sub.num_edges,)

    def test_copy_preserves_types(self, hetero_graph):
        clone = hetero_graph.copy()
        assert isinstance(clone, HeteroGraph)
        np.testing.assert_array_equal(clone.node_type, hetero_graph.node_type)
        assert clone.relations == hetero_graph.relations

    def test_layer_capacity_error_has_context(self, hetero_data):
        model = build_model("rgcn", hetero_data.num_features, 3, hidden=16,
                            seed=0, num_relations=2)
        with pytest.raises(ValueError, match="num_relations >= 4"):
            model.forward(hetero_data)


class TestHeteroDataset:
    def test_registry_and_did_you_mean(self):
        graph = load_dataset("sbm-hetero", num_nodes=80, num_relations=2, seed=1)
        assert isinstance(graph, HeteroGraph)
        assert graph.num_relations == 2
        with pytest.raises(KeyError, match="did you mean 'sbm-hetero'"):
            load_dataset("sbm-heteo")

    def test_generator_is_deterministic_and_connected(self):
        first = make_hetero_sbm(num_nodes=90, num_relations=3,
                                num_node_types=3, seed=4)
        second = make_hetero_sbm(num_nodes=90, num_relations=3,
                                 num_node_types=3, seed=4)
        np.testing.assert_array_equal(first.edge_index, second.edge_index)
        np.testing.assert_array_equal(first.features, second.features)
        degree = np.bincount(first.edge_index.ravel(), minlength=90)
        assert (degree > 0).all()

    def test_generator_rejects_unreachable_types(self):
        with pytest.raises(ValueError, match="num_node_types"):
            make_hetero_sbm(num_relations=1, num_node_types=3)


# ----------------------------------------------------------------------
# Tensors view: relation blocks through the ComputeCache
# ----------------------------------------------------------------------
class TestHeteroGraphTensors:
    def test_from_graph_dispatches(self, hetero_graph, hetero_data):
        assert isinstance(hetero_data, HeteroGraphTensors)
        assert hetero_data.num_relations == hetero_graph.num_relations

    def test_single_relation_shares_cached_operator(self, tiny_graph):
        homogeneous = GraphTensors.from_graph(tiny_graph)
        hetero = GraphTensors.from_graph(HeteroGraph.from_homogeneous(tiny_graph))
        for kind in ("sym", "rw", "raw"):
            assert hetero.relation_operator(0, kind).matrix \
                is homogeneous.relation_operator(0, kind).matrix

    def test_single_relation_block_matches_edge_index(self, tiny_graph):
        homogeneous = GraphTensors.from_graph(tiny_graph)
        hetero = GraphTensors.from_graph(HeteroGraph.from_homogeneous(tiny_graph))
        block_h = hetero.relation_block(0)
        block_t = homogeneous.relation_block(0)
        np.testing.assert_array_equal(block_h.u, block_t.u)
        np.testing.assert_array_equal(block_h.v, block_t.v)
        np.testing.assert_array_equal(block_h.edge_weight, block_t.edge_weight)

    def test_relation_blocks_cover_the_graph(self, hetero_graph, hetero_data):
        assert len(hetero_data.relation_adjacency) == hetero_graph.num_relations
        union = None
        for block in hetero_data.relation_adjacency:
            assert block.nnz > 0
            support = (block != 0)
            union = support if union is None else (union + support)
        # Coincident edges from different relations collapse in the union
        # CSR, but the combined support must match it exactly.
        np.testing.assert_array_equal(
            (union.toarray() != 0), hetero_data.adj_raw.matrix.toarray() != 0)

    def test_with_features_preserves_relations(self, hetero_data):
        replaced = hetero_data.with_features(hetero_data.features)
        assert isinstance(replaced, HeteroGraphTensors)
        assert replaced.relations == hetero_data.relations


# ----------------------------------------------------------------------
# Degenerate single-relation bit-parity vs GCN / GAT
# ----------------------------------------------------------------------
PARITY_PAIRS = [("gcn", "rgcn"), ("gat", "rgat")]


def _rename_relational(name: str, relational: str) -> str:
    """Map relational parameter names onto their homogeneous twins.

    RGAT nests per-relation parameters under ``relation_attention.<r>``;
    RGCN keeps one Linear per relation (``linears.<r>``) and hoists the
    shared bias to conv level, whereas GCNConv's bias lives inside its
    Linear.
    """
    name = name.replace("relation_attention.0.", "")
    if relational == "rgcn":
        name = name.replace("linears.0.weight", "linear.weight")
        name = re.sub(r"(convs\.\d+)\.bias$", r"\1.linear.bias", name)
    return name


class TestSingleRelationParity:
    @pytest.mark.parametrize("base,relational", PARITY_PAIRS)
    def test_forward_backward_bitwise(self, base, relational, tiny_graph):
        data = GraphTensors.from_graph(tiny_graph)
        hetero = GraphTensors.from_graph(HeteroGraph.from_homogeneous(tiny_graph))
        base_model = build_model(base, tiny_graph.num_features,
                                 tiny_graph.num_classes, hidden=16, seed=3)
        rel_model = build_model(relational, tiny_graph.num_features,
                                tiny_graph.num_classes, hidden=16, seed=3,
                                num_relations=1)
        base_model.train(), rel_model.train()
        base_out = base_model.forward(data)
        rel_out = rel_model.forward(hetero)
        np.testing.assert_array_equal(base_out.data, rel_out.data)
        base_out.sum().backward()
        rel_out.sum().backward()
        base_grads = {k: p.grad for k, p in base_model.named_parameters()}
        rel_grads = {_rename_relational(k, relational): p.grad
                     for k, p in rel_model.named_parameters()}
        assert set(base_grads) == set(rel_grads)
        for key, grad in base_grads.items():
            np.testing.assert_array_equal(grad, rel_grads[key], err_msg=key)
        np.testing.assert_array_equal(base_model.forward_inference(data),
                                      rel_model.forward_inference(hetero))

    @pytest.mark.parametrize("base,relational", PARITY_PAIRS)
    @pytest.mark.parametrize("capture_mode", [False, True])
    def test_training_bitwise_both_engines(self, base, relational, capture_mode,
                                           tiny_split_graph, tiny_data):
        hetero_graph = HeteroGraph.from_homogeneous(tiny_split_graph)
        hetero_data = GraphTensors.from_graph(hetero_graph)
        config = TrainConfig(lr=0.02, max_epochs=6, patience=50, seed=3,
                             capture=capture_mode)

        def train(name, graph, data, **build_kwargs):
            model = build_model(name, data.num_features, graph.num_classes,
                                hidden=16, seed=3, **build_kwargs)
            result = NodeClassificationTrainer(config).train(
                model, data, graph.labels, graph.mask_indices("train"),
                graph.mask_indices("val"))
            return result, model

        base_result, base_model = train(base, tiny_split_graph, tiny_data)
        rel_result, rel_model = train(relational, hetero_graph, hetero_data,
                                      num_relations=1)
        assert base_result.history == rel_result.history
        np.testing.assert_array_equal(base_model.forward_inference(tiny_data),
                                      rel_model.forward_inference(hetero_data))

    @pytest.mark.parametrize("base,relational", PARITY_PAIRS)
    def test_float32_parity(self, base, relational, tiny_graph):
        with compute_dtype_scope("float32"):
            data = GraphTensors.from_graph(tiny_graph)
            hetero = GraphTensors.from_graph(HeteroGraph.from_homogeneous(tiny_graph))
            base_model = build_model(base, tiny_graph.num_features,
                                     tiny_graph.num_classes, hidden=16, seed=3)
            rel_model = build_model(relational, tiny_graph.num_features,
                                    tiny_graph.num_classes, hidden=16, seed=3,
                                    num_relations=1)
            np.testing.assert_array_equal(base_model.forward_inference(data),
                                          rel_model.forward_inference(hetero))

    def test_pipeline_parity_across_backends(self, any_backend, tiny_split_graph):
        """The whole ensemble pipeline on a 1-relation hetero twin is
        bit-identical to the homogeneous run at fixed seeds."""
        hetero_twin = HeteroGraph.from_homogeneous(tiny_split_graph)
        config = _fast_config(candidate_models=["gcn", "sgc", "mlp"],
                              backend=any_backend)
        homogeneous = AutoHEnsGNN(config).fit(tiny_split_graph)
        hetero = AutoHEnsGNN(config).fit(hetero_twin)
        np.testing.assert_array_equal(homogeneous.predict_proba(tiny_split_graph),
                                      hetero.predict_proba(hetero_twin))


# ----------------------------------------------------------------------
# Capture: record the new kernels, never silently fall back
# ----------------------------------------------------------------------
class TestHeteroCapture:
    @pytest.mark.parametrize("name", ["rgcn", "rgcn-basis", "rgat"])
    def test_multi_relation_capture_bitwise_no_bailouts(self, name, hetero_graph,
                                                        hetero_data):
        def train(capture_mode):
            capture.reset_engine_stats()
            model = build_model(name, hetero_data.num_features,
                                hetero_graph.num_classes, hidden=16, seed=3)
            config = TrainConfig(lr=0.02, max_epochs=6, patience=50, seed=3,
                                 capture=capture_mode)
            with warnings.catch_warnings():
                warnings.simplefilter("error", capture.CaptureBailoutWarning)
                result = NodeClassificationTrainer(config).train(
                    model, hetero_data, hetero_graph.labels,
                    hetero_graph.mask_indices("train"),
                    hetero_graph.mask_indices("val"))
            return result, model

        dynamic, dynamic_model = train(False)
        captured, captured_model = train(True)
        assert captured.capture_used
        assert capture.engine_stats()["bailouts"] == 0
        assert dynamic.history == captured.history
        np.testing.assert_array_equal(
            dynamic_model.forward_inference(hetero_data),
            captured_model.forward_inference(hetero_data))


# ----------------------------------------------------------------------
# shm publishing path
# ----------------------------------------------------------------------
class TestHeteroShm:
    def test_put_tensors_round_trips_hetero_view(self, hetero_graph, hetero_data):
        clear_shared_cache()
        with SharedGraphStore() as store:
            handle = store.put_tensors(hetero_data)
            rebuilt = handle.tensors()
            assert isinstance(rebuilt, HeteroGraphTensors)
            assert rebuilt.relations == hetero_data.relations
            np.testing.assert_array_equal(rebuilt.node_type,
                                          hetero_data.node_type)
            for relation_id in range(hetero_data.num_relations):
                for kind in ("sym", "raw"):
                    original = hetero_data.relation_operator(relation_id, kind)
                    mapped = rebuilt.relation_operator(relation_id, kind)
                    np.testing.assert_array_equal(original.matrix.toarray(),
                                                  mapped.matrix.toarray())
            model = build_model("rgat", hetero_data.num_features,
                                hetero_graph.num_classes, hidden=16, seed=0)
            np.testing.assert_array_equal(model.forward_inference(hetero_data),
                                          model.forward_inference(rebuilt))
        clear_shared_cache()


# ----------------------------------------------------------------------
# Full pipeline, serving and artifacts on multi-relation input
# ----------------------------------------------------------------------
class TestHeteroPipeline:
    def test_backends_bitwise_identical(self, hetero_graph):
        probabilities = {}
        for backend in ("serial", "thread", "process"):
            config = _fast_config(backend=backend, max_workers=2,
                                  shared_graph=(backend == "process"))
            fitted = AutoHEnsGNN(config).fit(hetero_graph)
            probabilities[backend] = fitted.predict_proba(hetero_graph)
        np.testing.assert_array_equal(probabilities["serial"],
                                      probabilities["thread"])
        np.testing.assert_array_equal(probabilities["serial"],
                                      probabilities["process"])

    def test_artifact_save_load_rescore(self, hetero_graph, tmp_path):
        fitted = AutoHEnsGNN(_fast_config()).fit(hetero_graph)
        expected = fitted.predict_proba(hetero_graph)
        path = str(tmp_path / "hetero-ensemble")
        fitted.save(path)
        loaded = FittedEnsemble.load(path)
        np.testing.assert_array_equal(loaded.predict_proba(hetero_graph),
                                      expected)
        # BatchScorer consumes the same artifact with zero hetero-specific code.
        from repro.serve import BatchScorer
        result = BatchScorer(path).score(hetero_graph)
        np.testing.assert_array_equal(result.probabilities, expected)

    def test_sharded_scoring_refuses_multi_relation_graphs(self, hetero_graph):
        """Partitioning drops relation types, so it must refuse, not degrade."""
        from repro.serve import BatchScorer
        fitted = AutoHEnsGNN(_fast_config()).fit(hetero_graph)
        with BatchScorer(fitted, num_partitions=2) as scorer:
            with pytest.raises(ValueError, match="plain BatchScorer"):
                scorer.score(hetero_graph)

    def test_streaming_scoring_refuses_multi_relation_graphs(self, hetero_graph):
        """The mutable serving graph is untyped, so it must refuse hetero input."""
        from repro.serve import StreamingScorer
        fitted = AutoHEnsGNN(_fast_config()).fit(hetero_graph)
        with pytest.raises(ValueError, match="plain BatchScorer"):
            StreamingScorer(fitted, hetero_graph)
