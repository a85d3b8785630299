"""Pre-processed graph views consumed by the neural network layers.

Building the normalised adjacency matrices is the most expensive part of a
forward pass to repeat, so :class:`GraphTensors` computes the commonly used
propagation operators once per graph (symmetric-normalised, random-walk
normalised, and the raw weighted adjacency) together with the edge list in
destination-sorted order for the scatter-based attention layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.autograd.dtype import compute_dtype
from repro.autograd.kernels import RelationBlock
from repro.autograd.sparse import SparseTensor
from repro.autograd.tensor import Tensor
from repro.graph.batching import GraphBatch
from repro.graph.graph import Graph
from repro.graph import normalize as _norm
from repro.parallel.cache import compute_cache, csr_fingerprint, ndarray_fingerprint


@dataclass
class GraphTensors:
    """Autograd-ready tensors for one graph (or one block-diagonal batch)."""

    features: Tensor
    adj_sym: SparseTensor
    adj_rw: SparseTensor
    adj_raw: SparseTensor
    edge_index: np.ndarray
    edge_weight: np.ndarray
    num_nodes: int
    num_features: int
    graph_id: Optional[np.ndarray] = None
    num_graphs: int = 1
    #: Whether derived operators (``A^k X``) may be memoised in the
    #: process-wide ComputeCache.  Sub-graph batch views set this False:
    #: every sampled batch is unique, so global caching is pure churn.
    cache_derived: bool = True
    extras: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphTensors":
        if cls is GraphTensors and getattr(graph, "relations", None) is not None:
            # Typed graphs get the relation-blocked view; the duck check
            # keeps the hetero subsystem out of the homogeneous import path.
            from repro.graph.hetero import HeteroGraph, HeteroGraphTensors
            if isinstance(graph, HeteroGraph):
                return HeteroGraphTensors.from_hetero(graph)
        adj = _norm.build_adjacency(graph.edge_index, graph.num_nodes,
                                    edge_weight=graph.edge_weight,
                                    make_undirected=not graph.directed)
        return cls._from_adjacency(adj, graph.features, graph.edge_index, graph.edge_weight)

    @classmethod
    def from_batch(cls, batch: GraphBatch) -> "GraphTensors":
        adj = _norm.build_adjacency(batch.edge_index, batch.num_nodes,
                                    edge_weight=batch.edge_weight,
                                    make_undirected=not batch.directed)
        tensors = cls._from_adjacency(adj, batch.features, batch.edge_index, batch.edge_weight)
        tensors.graph_id = batch.graph_id
        tensors.num_graphs = batch.num_graphs
        return tensors

    @classmethod
    def from_subgraph(cls, batch, features) -> "GraphTensors":
        """View of one sampled :class:`~repro.graph.batching.SubgraphBatch`.

        ``features`` is the **full graph's** feature matrix (ndarray or
        ``Tensor``); the batch's sampled rows are sliced out.  The sampler
        stores both directions of every undirected edge, so no further
        symmetrisation is applied.  Unlike :meth:`from_graph` the normalised
        operators are built *without* the process-wide cache: every sampled
        batch is structurally unique, so content-hashing and LRU insertion
        would be pure overhead (and would evict genuinely shared entries).
        """
        if isinstance(features, Tensor):
            features = features.data
        adj = _norm.build_adjacency(batch.edge_index, batch.num_nodes,
                                    edge_weight=batch.edge_weight,
                                    make_undirected=False)
        tensors = cls._from_adjacency(adj, features[batch.nodes],
                                      batch.edge_index, batch.edge_weight,
                                      use_cache=False)
        tensors.cache_derived = False
        return tensors

    @classmethod
    def _from_adjacency(cls, adj: sp.csr_matrix, features: np.ndarray,
                        edge_index: np.ndarray, edge_weight: np.ndarray,
                        use_cache: bool = True) -> "GraphTensors":
        dtype = compute_dtype()
        if use_cache:
            cache = compute_cache()
            adj_fp = csr_fingerprint(adj)
            # The cache stores one normalised operator per (kind, dtype) so
            # float32 and float64 views of the same graph never collide — and a
            # float32 run aliases read-only float32 CSRs straight into
            # ``SparseTensor`` instead of re-casting per view.
            sym = cache.normalized_adjacency(adj, normalization="sym", self_loops=True,
                                             fingerprint=adj_fp, dtype=dtype)
            rw = cache.normalized_adjacency(adj, normalization="rw", self_loops=True,
                                            fingerprint=adj_fp, dtype=dtype)
            raw = cache.normalized_adjacency(adj, normalization="none", self_loops=False,
                                             fingerprint=adj_fp, dtype=dtype)
        else:
            # All three operators are built eagerly even though a given
            # model reads only one; after the vectorised add_self_loops
            # they are a small slice of per-batch cost (~50ms total on a
            # 50k-node batch vs ~500ms forward/backward), so lazy fields
            # are not worth the property indirection on this dataclass.
            sym = _norm.normalized_adjacency(adj, normalization="sym",
                                             self_loops=True).astype(dtype)
            rw = _norm.normalized_adjacency(adj, normalization="rw",
                                            self_loops=True).astype(dtype)
            raw = adj.astype(dtype)
            # Freeze the batch-local operators so SparseTensor aliases them
            # zero-copy (it only aliases read-only CSRs) — nothing else
            # holds a reference to these matrices.
            for operator in (sym, rw, raw):
                operator.data.setflags(write=False)
        # Attention layers operate on the symmetrised edge list with self loops.
        sym_structure = _norm.add_self_loops(adj).tocoo()
        undirected_edges = np.vstack([sym_structure.row, sym_structure.col])
        undirected_weights = sym_structure.data
        return cls(
            features=Tensor(np.asarray(features, dtype=dtype)),
            adj_sym=SparseTensor(sym),
            adj_rw=SparseTensor(rw),
            adj_raw=SparseTensor(raw),
            edge_index=undirected_edges.astype(np.int64),
            edge_weight=np.asarray(undirected_weights, dtype=dtype),
            num_nodes=int(features.shape[0]),
            num_features=int(features.shape[1]),
        )

    # ------------------------------------------------------------------
    # Cached derived operators
    # ------------------------------------------------------------------
    def propagation(self, kind: str) -> SparseTensor:
        """Return the requested propagation operator ("sym", "rw" or "raw")."""
        if kind == "sym":
            return self.adj_sym
        if kind == "rw":
            return self.adj_rw
        if kind == "raw":
            return self.adj_raw
        raise ValueError(f"unknown propagation operator {kind!r}")

    # ------------------------------------------------------------------
    # Relation-blocked interface (single implicit relation).
    # ``HeteroGraphTensors`` overrides all three with per-relation blocks;
    # relational layers are written against this interface only, so they
    # run on homogeneous graphs as the one-relation degenerate case.
    # ------------------------------------------------------------------
    @property
    def num_relations(self) -> int:
        """Number of canonical relations (always 1 for homogeneous views)."""
        return 1

    def relation_operator(self, relation_id: int, kind: str) -> SparseTensor:
        """Propagation operator of one relation — here the union operator."""
        if relation_id != 0:
            raise IndexError(
                f"homogeneous view has a single relation, got id {relation_id}")
        return self.propagation(kind)

    def relation_block(self, relation_id: int) -> RelationBlock:
        """Edge-parallel view of one relation — here the full edge list.

        Built from the same self-looped symmetrised ``edge_index`` /
        ``edge_weight`` the attention layers consume, so gspmm/gsddmm over
        this block are bit-compatible with the scatter-based homogeneous
        path.  Memoised per view.
        """
        if relation_id != 0:
            raise IndexError(
                f"homogeneous view has a single relation, got id {relation_id}")
        return self.edge_block()

    def edge_block(self) -> RelationBlock:
        """Edge-parallel view of the whole attention edge list, memoised.

        The union of all relations on typed views, which is what the
        relation-agnostic attention layers aggregate over.
        """
        key = "edge_block"
        if key not in self.extras:
            self.extras[key] = RelationBlock(
                self.edge_index[0], self.edge_index[1], self.num_nodes,
                edge_weight=self.edge_weight)
        return self.extras[key]  # type: ignore[return-value]

    def features_fingerprint(self) -> str:
        """Content hash of the feature matrix, memoised per view."""
        key = "fingerprint:features"
        if key not in self.extras:
            self.extras[key] = ndarray_fingerprint(self.features.data)
        return self.extras[key]  # type: ignore[return-value]

    def powered_features(self, kind: str, power: int) -> Tensor:
        """Return ``A^power X`` with caching (used by SGC/SIGN-style models).

        The product is memoised both on this view (``extras``) and in the
        process-wide :class:`~repro.parallel.cache.ComputeCache`, so replicas
        and bagging splits trained concurrently on the same graph share one
        propagation instead of each recomputing ``power`` sparse matmuls.
        """
        key = f"powered:{kind}:{power}"
        if key not in self.extras:
            operator = self.propagation(kind)

            def compute() -> np.ndarray:
                current = self.features.data
                for _ in range(power):
                    current = operator.matrix @ current
                return current

            if self.cache_derived:
                data = compute_cache().powered_features(
                    operator.fingerprint, self.features_fingerprint(), power, compute)
            else:
                # Sub-graph batch views: memoise on this view only — the
                # batch is never seen again, so hashing it into the global
                # cache would cost fingerprints and evict shared entries.
                data = compute()
            self.extras[key] = Tensor(data)
        return self.extras[key]  # type: ignore[return-value]

    def edge_scatter(self, which: str) -> sp.csr_matrix:
        """CSR operator summing per-edge values into their ``src``/``dst`` node.

        ``S[node, edge] = 1`` for every edge whose chosen endpoint is
        ``node``; ``S @ edge_values`` then performs the scatter-sum that the
        attention layers otherwise pay ``np.add.at`` for (an order of
        magnitude slower — ``np.ufunc.at`` is unbuffered and unvectorised).
        Within a node the CSR product accumulates contributions in edge-id
        order, exactly like ``np.add.at``, so results are bit-identical.
        Built once per view and memoised in ``extras``.
        """
        if which not in {"src", "dst"}:
            raise ValueError("which must be 'src' or 'dst'")
        key = f"edge_scatter:{which}"
        if key not in self.extras:
            index = self.edge_index[0 if which == "src" else 1]
            num_edges = index.shape[0]
            matrix = sp.csr_matrix(
                (np.ones(num_edges, dtype=self.features.data.dtype),
                 (index, np.arange(num_edges))),
                shape=(self.num_nodes, num_edges))
            self.extras[key] = matrix
        return self.extras[key]  # type: ignore[return-value]

    def restrict_rows(self, rows: np.ndarray) -> "GraphTensors":
        """View whose one-hop aggregations compute only output rows ``rows``.

        Same ``num_nodes`` and features.  The propagation operators keep
        their shape with every row outside ``rows`` emptied, and the edge
        list keeps the edges whose destination is in ``rows``, in their
        original relative order (``edge_scatter``/``edge_block`` derive from
        that list).  Each kept row therefore sums the same entries in the
        same order as on the full view, so a one-hop layer's rows ``rows``
        are bitwise the full layer's; its other rows are unspecified.
        Memoised on this view's ``extras``.
        """
        rows = np.asarray(rows)
        key = f"rows:{ndarray_fingerprint(rows)}"
        if key not in self.extras:
            keep = np.zeros(self.num_nodes, dtype=bool)
            keep[rows] = True
            kept = np.flatnonzero(keep[self.edge_index[1]])
            self.extras[key] = GraphTensors(
                features=self.features,
                adj_sym=_restrict_operator(self.adj_sym, keep),
                adj_rw=_restrict_operator(self.adj_rw, keep),
                adj_raw=_restrict_operator(self.adj_raw, keep),
                edge_index=self.edge_index[:, kept],
                edge_weight=self.edge_weight[kept],
                num_nodes=self.num_nodes,
                num_features=self.num_features,
                graph_id=self.graph_id,
                num_graphs=self.num_graphs,
                cache_derived=self.cache_derived,
                extras={"edge_draw": (self.edge_index.shape[1], kept)},
            )
        return self.extras[key]  # type: ignore[return-value]

    def edge_draw(self, shape: tuple) -> Dict[str, object]:
        """``F.dropout`` arguments for a per-edge tensor of ``shape``.

        A row view records its parent's edge count and its kept edge
        positions: the mask is drawn at the parent's size and those
        positions selected, so the RNG stream and the kept edges' masks
        match the full view's.  On a full view there is nothing to add.
        """
        if "edge_draw" not in self.extras:
            return {}
        parent_edges, positions = self.extras["edge_draw"]
        return {"draw_shape": (parent_edges,) + tuple(shape[1:]),
                "positions": positions}

    def with_features(self, features: Tensor) -> "GraphTensors":
        """A copy of this view with substituted node features (same structure)."""
        return GraphTensors(
            features=features,
            adj_sym=self.adj_sym,
            adj_rw=self.adj_rw,
            adj_raw=self.adj_raw,
            edge_index=self.edge_index,
            edge_weight=self.edge_weight,
            num_nodes=self.num_nodes,
            num_features=int(features.shape[1]),
            graph_id=self.graph_id,
            num_graphs=self.num_graphs,
            cache_derived=self.cache_derived,
        )


def _restrict_operator(operator: SparseTensor, keep: np.ndarray) -> SparseTensor:
    """``operator`` with every row outside ``keep`` emptied (same shape)."""
    matrix = operator.matrix
    counts = np.diff(matrix.indptr)
    entries = np.repeat(keep, counts)
    indptr = np.zeros_like(matrix.indptr)
    np.cumsum(np.where(keep, counts, 0), out=indptr[1:])
    restricted = sp.csr_matrix(
        (matrix.data[entries], matrix.indices[entries], indptr), shape=matrix.shape)
    # Read-only, so SparseTensor aliases it instead of copying.
    restricted.data.setflags(write=False)
    return SparseTensor(restricted)
