"""Heterogeneous (typed) graphs and their relation-blocked tensor views.

A :class:`HeteroGraph` extends :class:`~repro.graph.graph.Graph` with a
node-type table, an edge-type table and a list of canonical relations
``(source type, relation name, destination type)``.  The node ids stay
global — the union of all typed nodes — so every homogeneous consumer
(splits, subgraph sampling, the ensemble pipeline, serving) works on a
heterogeneous graph unchanged; the typed tables ride along through
``dataclasses.replace``-based transformations.

:class:`HeteroGraphTensors` is the matching compute view: on top of the
union operators of :class:`~repro.nn.data.GraphTensors` it stores **one raw
CSR adjacency block per canonical relation**.  Normalised per-relation
operators and edge-parallel :class:`~repro.autograd.kernels.RelationBlock`
views are derived lazily through the process-wide
:class:`~repro.parallel.cache.ComputeCache`, keyed by each block's content
fingerprint — so replicas, bagging splits and process workers share one
normalisation per relation, and streaming invalidation hooks apply to
relation blocks exactly as they do to the union operators.

A single-relation ``HeteroGraph`` is the degenerate case that anchors
correctness: its one relation block has the same content fingerprint as the
union adjacency, so the cache hands back the *same* frozen CSR the
homogeneous path uses and RGCN/RGAT reproduce GCN/GAT bit-for-bit.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.kernels import RelationBlock
from repro.autograd.sparse import SparseTensor
from repro.graph import normalize as _norm
from repro.graph.graph import Graph
from repro.nn.data import GraphTensors
from repro.parallel.cache import compute_cache, csr_fingerprint

#: A canonical relation: (source node type, relation name, destination type).
Relation = Tuple[str, str, str]


def _format_relation(relation: Sequence[str]) -> str:
    """Render a relation triple as the compact ``src:name:dst`` form."""
    return ":".join(relation)


def _suggest(name: str, known: Sequence[str]) -> str:
    """A did-you-mean suffix for an unknown type/relation name."""
    matches = difflib.get_close_matches(name, list(known), n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


@dataclass
class HeteroGraph(Graph):
    """An attributed graph with typed nodes and typed (relational) edges.

    On top of the :class:`~repro.graph.graph.Graph` fields:

    node_type:
        Integer array of shape ``(num_nodes,)`` indexing into
        ``node_type_names``.  Defaults to all zeros (one type).
    edge_type:
        Integer array of shape ``(num_edges,)`` indexing into ``relations``.
        Defaults to all zeros (one relation).
    node_type_names:
        The declared node types, in id order.
    relations:
        The canonical relations as ``(src_type, name, dst_type)`` triples,
        in edge-type id order.

    Construction validates the typed tables the same way
    ``AutoHEnsGNNConfig.validate`` treats configuration problems: every
    issue — unknown relation endpoint types, out-of-range type ids,
    edges whose endpoints contradict their relation's declared types — is
    collected and reported in one aggregated ``ValueError``.
    """

    node_type: Optional[np.ndarray] = None
    edge_type: Optional[np.ndarray] = None
    node_type_names: Tuple[str, ...] = ("node",)
    relations: Tuple[Relation, ...] = (("node", "edge", "node"),)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node_type is None:
            self.node_type = np.zeros(self.num_nodes, dtype=np.int64)
        else:
            self.node_type = np.asarray(self.node_type, dtype=np.int64)
        if self.edge_type is None:
            self.edge_type = np.zeros(self.num_edges, dtype=np.int64)
        else:
            self.edge_type = np.asarray(self.edge_type, dtype=np.int64)
        self.node_type_names = tuple(self.node_type_names)
        self.relations = tuple(tuple(relation) for relation in self.relations)
        problems = self._validate()
        if problems:
            details = "\n  - ".join(problems)
            raise ValueError(f"invalid HeteroGraph:\n  - {details}")

    def _validate(self) -> list:
        """Collect every typed-table problem (aggregated, never fail-first)."""
        problems = []
        if self.node_type.shape != (self.num_nodes,):
            problems.append(
                f"node_type has shape {self.node_type.shape}, expected "
                f"({self.num_nodes},)")
        if self.edge_type.shape != (self.num_edges,):
            problems.append(
                f"edge_type has shape {self.edge_type.shape}, expected "
                f"({self.num_edges},)")
        if not self.node_type_names:
            problems.append("node_type_names must declare at least one type")
        if not self.relations:
            problems.append("relations must declare at least one relation")
        for relation in self.relations:
            if len(relation) != 3:
                problems.append(
                    f"relation {relation!r} must be a (src, name, dst) triple")
                continue
            for endpoint in (relation[0], relation[2]):
                if endpoint not in self.node_type_names:
                    problems.append(
                        f"relation {_format_relation(relation)!r} references "
                        f"unknown node type {endpoint!r}"
                        f"{_suggest(endpoint, self.node_type_names)}; known "
                        f"types: {sorted(self.node_type_names)}")
        if problems:
            return problems
        if self.node_type.size and (self.node_type.min() < 0
                                    or self.node_type.max() >= len(self.node_type_names)):
            problems.append(
                f"node_type ids must lie in [0, {len(self.node_type_names)}) "
                f"for the declared types {self.node_type_names}")
        if self.edge_type.size and (self.edge_type.min() < 0
                                    or self.edge_type.max() >= len(self.relations)):
            problems.append(
                f"edge_type ids must lie in [0, {len(self.relations)}) for "
                f"the declared relations")
        if problems:
            return problems
        type_index = {name: i for i, name in enumerate(self.node_type_names)}
        expected_src = np.array([type_index[r[0]] for r in self.relations])
        expected_dst = np.array([type_index[r[2]] for r in self.relations])
        src, dst = self.edge_index
        bad_src = self.node_type[src] != expected_src[self.edge_type]
        bad_dst = self.node_type[dst] != expected_dst[self.edge_type]
        for relation_id, relation in enumerate(self.relations):
            bad = ((bad_src | bad_dst) & (self.edge_type == relation_id)).sum()
            if bad:
                problems.append(
                    f"{int(bad)} edge(s) of relation "
                    f"{_format_relation(relation)!r} connect nodes whose "
                    f"types contradict the relation's declared endpoints")
        return problems

    # ------------------------------------------------------------------
    # Typed constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_typed(cls, features: Dict[str, np.ndarray],
                   edges: Dict[Relation, np.ndarray],
                   labels: Union[None, np.ndarray, Dict[str, np.ndarray]] = None,
                   directed: bool = False,
                   num_classes: Optional[int] = None,
                   name: str = "hetero",
                   metadata: Optional[Dict] = None) -> "HeteroGraph":
        """Build a heterogeneous graph from per-type tables.

        Parameters
        ----------
        features:
            ``{node_type_name: (count, width) feature table}``; the insertion
            order defines both the type ids and the global node id layout
            (types are laid out contiguously, in order).  All types must
            share one feature width.
        edges:
            ``{(src_type, relation_name, dst_type): (2, E_r) edge list}``
            with node ids **local to each endpoint's type**.
        labels:
            Either a global ``(num_nodes,)`` array, a ``{type: (count,)}``
            dict for the labelled types, or ``None`` (all ``-1``).

        All construction problems (unknown endpoint types with a
        did-you-mean hint, missing node-type features, inconsistent widths,
        malformed or out-of-range edge lists) are aggregated into a single
        ``ValueError``.
        """
        problems = []
        if not features:
            problems.append("features must declare at least one node type")
        type_names = tuple(features.keys())
        widths = {name_: np.asarray(table).shape[1]
                  for name_, table in features.items()
                  if np.asarray(table).ndim == 2}
        for name_, table in features.items():
            if np.asarray(table).ndim != 2:
                problems.append(
                    f"features[{name_!r}] must be a 2-D (count, width) table")
        if len(set(widths.values())) > 1:
            problems.append(
                f"all node types must share one feature width, got {widths}")
        counts = {name_: int(np.asarray(table).shape[0])
                  for name_, table in features.items()}
        for relation, edge_list in edges.items():
            if len(relation) != 3:
                problems.append(
                    f"relation key {relation!r} must be a (src, name, dst) triple")
                continue
            src_type, _, dst_type = relation
            for endpoint in (src_type, dst_type):
                if endpoint not in counts:
                    problems.append(
                        f"relation {_format_relation(relation)!r} references "
                        f"node type {endpoint!r} with no feature table"
                        f"{_suggest(endpoint, type_names)}; declared types: "
                        f"{sorted(type_names)}")
            edge_list = np.asarray(edge_list)
            if edge_list.ndim != 2 or edge_list.shape[0] != 2:
                problems.append(
                    f"edges[{_format_relation(relation)!r}] must have shape "
                    f"(2, num_edges)")
                continue
            if src_type in counts and edge_list.size \
                    and edge_list[0].max(initial=-1) >= counts[src_type]:
                problems.append(
                    f"edges[{_format_relation(relation)!r}] reference source "
                    f"ids beyond the {counts[src_type]} nodes of type "
                    f"{src_type!r}")
            if dst_type in counts and edge_list.size \
                    and edge_list[1].max(initial=-1) >= counts[dst_type]:
                problems.append(
                    f"edges[{_format_relation(relation)!r}] reference "
                    f"destination ids beyond the {counts[dst_type]} nodes of "
                    f"type {dst_type!r}")
        if isinstance(labels, dict):
            for name_ in labels:
                if name_ not in counts:
                    problems.append(
                        f"labels reference unknown node type {name_!r}"
                        f"{_suggest(name_, type_names)}")
        if problems:
            details = "\n  - ".join(problems)
            raise ValueError(f"invalid HeteroGraph:\n  - {details}")

        offsets = {}
        total = 0
        for name_ in type_names:
            offsets[name_] = total
            total += counts[name_]
        feature_table = np.vstack([np.asarray(features[name_])
                                   for name_ in type_names])
        node_type = np.concatenate([
            np.full(counts[name_], i, dtype=np.int64)
            for i, name_ in enumerate(type_names)]) if type_names else \
            np.zeros(0, dtype=np.int64)

        relation_list = tuple(tuple(r) for r in edges.keys())
        edge_blocks = []
        edge_types = []
        for relation_id, (relation, edge_list) in enumerate(edges.items()):
            src_type, _, dst_type = relation
            edge_list = np.asarray(edge_list, dtype=np.int64)
            edge_blocks.append(np.vstack([
                edge_list[0] + offsets[src_type],
                edge_list[1] + offsets[dst_type]]))
            edge_types.append(np.full(edge_list.shape[1], relation_id,
                                      dtype=np.int64))
        edge_index = np.hstack(edge_blocks) if edge_blocks else \
            np.zeros((2, 0), dtype=np.int64)
        edge_type = np.concatenate(edge_types) if edge_types else \
            np.zeros(0, dtype=np.int64)

        if labels is None:
            label_table = -np.ones(total, dtype=np.int64)
        elif isinstance(labels, dict):
            label_table = -np.ones(total, dtype=np.int64)
            for name_, values in labels.items():
                start = offsets[name_]
                label_table[start:start + counts[name_]] = np.asarray(values)
        else:
            label_table = np.asarray(labels, dtype=np.int64)

        return cls(
            edge_index=edge_index, features=feature_table, labels=label_table,
            directed=directed, num_classes=num_classes, name=name,
            metadata=metadata or {}, node_type=node_type, edge_type=edge_type,
            node_type_names=type_names, relations=relation_list)

    @classmethod
    def from_homogeneous(cls, graph: Graph,
                         relation: Relation = ("node", "edge", "node")) -> "HeteroGraph":
        """Wrap a homogeneous graph as a single-relation heterogeneous one.

        The degenerate-case constructor used by the parity tests: all nodes
        get the relation's source type and every edge the single relation,
        with features/labels/masks/metadata shared (not copied).
        """
        return cls(
            edge_index=graph.edge_index, features=graph.features,
            labels=graph.labels, edge_weight=graph.edge_weight,
            directed=graph.directed, num_classes=graph.num_classes,
            train_mask=graph.train_mask, val_mask=graph.val_mask,
            test_mask=graph.test_mask, name=graph.name,
            metadata=dict(graph.metadata),
            node_type_names=(relation[0],), relations=(tuple(relation),))

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------
    @property
    def num_node_types(self) -> int:
        """Number of declared node types."""
        return len(self.node_type_names)

    @property
    def num_relations(self) -> int:
        """Number of canonical ``(src_type, name, dst_type)`` relations."""
        return len(self.relations)

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """The canonical relations as compact ``src:name:dst`` strings."""
        return tuple(_format_relation(r) for r in self.relations)

    def nodes_of_type(self, type_name: str) -> np.ndarray:
        """Global node ids of one declared node type."""
        if type_name not in self.node_type_names:
            raise KeyError(
                f"unknown node type {type_name!r}"
                f"{_suggest(type_name, self.node_type_names)}; known types: "
                f"{sorted(self.node_type_names)}")
        return np.where(self.node_type == self.node_type_names.index(type_name))[0]

    def relation_edges(self, relation_id: int) -> np.ndarray:
        """The ``(2, E_r)`` slice of the edge list belonging to one relation."""
        return self.edge_index[:, self.edge_type == relation_id]

    # ------------------------------------------------------------------
    # Subclass-preserving transformations
    # ------------------------------------------------------------------
    def subgraph(self, nodes: np.ndarray, name: Optional[str] = None) -> "HeteroGraph":
        """Induced typed sub-graph (node/edge type tables are re-indexed)."""
        nodes = np.asarray(sorted(set(int(n) for n in np.asarray(nodes))), dtype=np.int64)
        lookup = -np.ones(self.num_nodes, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.shape[0])
        src, dst = self.edge_index
        keep = (lookup[src] >= 0) & (lookup[dst] >= 0)
        return HeteroGraph(
            edge_index=np.vstack([lookup[src[keep]], lookup[dst[keep]]]),
            features=self.features[nodes],
            labels=self.labels[nodes],
            edge_weight=self.edge_weight[keep],
            directed=self.directed,
            num_classes=self.num_classes,
            train_mask=None if self.train_mask is None else self.train_mask[nodes],
            val_mask=None if self.val_mask is None else self.val_mask[nodes],
            test_mask=None if self.test_mask is None else self.test_mask[nodes],
            name=name or f"{self.name}-sub",
            metadata=dict(self.metadata, parent_nodes=nodes),
            node_type=self.node_type[nodes],
            edge_type=self.edge_type[keep],
            node_type_names=self.node_type_names,
            relations=self.relations,
        )

    def copy(self) -> "HeteroGraph":
        """Deep copy preserving the typed tables."""
        base = super().copy()
        return HeteroGraph(
            edge_index=base.edge_index, features=base.features,
            labels=base.labels, edge_weight=base.edge_weight,
            directed=base.directed, num_classes=base.num_classes,
            train_mask=base.train_mask, val_mask=base.val_mask,
            test_mask=base.test_mask, name=base.name, metadata=base.metadata,
            node_type=self.node_type.copy(), edge_type=self.edge_type.copy(),
            node_type_names=self.node_type_names, relations=self.relations)


@dataclass
class HeteroGraphTensors(GraphTensors):
    """Relation-blocked compute view of a :class:`HeteroGraph`.

    The union fields (features, sym/rw/raw operators, attention edge list)
    are built exactly like the homogeneous view, so every homogeneous model
    runs on a heterogeneous graph unchanged.  On top of those this view
    stores one **raw CSR adjacency block per canonical relation**
    (``relation_adjacency``); normalised per-relation operators and
    :class:`~repro.autograd.kernels.RelationBlock` views are derived lazily
    via the process-wide ComputeCache under each block's content
    fingerprint.
    """

    relations: Tuple[Relation, ...] = ()
    node_type: Optional[np.ndarray] = None
    relation_adjacency: Tuple[sp.csr_matrix, ...] = ()

    @classmethod
    def from_hetero(cls, graph: HeteroGraph) -> "HeteroGraphTensors":
        """Build the union operators plus one raw CSR block per relation."""
        adj = _norm.build_adjacency(graph.edge_index, graph.num_nodes,
                                    edge_weight=graph.edge_weight,
                                    make_undirected=not graph.directed)
        tensors = cls._from_adjacency(adj, graph.features, graph.edge_index,
                                      graph.edge_weight)
        blocks = []
        for relation_id in range(graph.num_relations):
            mask = graph.edge_type == relation_id
            block = _norm.build_adjacency(
                graph.edge_index[:, mask], graph.num_nodes,
                edge_weight=np.asarray(graph.edge_weight)[mask],
                make_undirected=not graph.directed)
            block.data.setflags(write=False)
            blocks.append(block)
        tensors.relations = tuple(graph.relations)
        tensors.node_type = graph.node_type
        tensors.relation_adjacency = tuple(blocks)
        return tensors

    # ------------------------------------------------------------------
    # Relation-blocked accessors (the homogeneous base class exposes the
    # same interface with a single implicit relation)
    # ------------------------------------------------------------------
    @property
    def num_relations(self) -> int:
        """Number of per-relation adjacency blocks carried by this view."""
        return len(self.relations)

    def _relation_fingerprint(self, relation_id: int) -> str:
        key = f"relation_fp:{relation_id}"
        if key not in self.extras:
            self.extras[key] = csr_fingerprint(self.relation_adjacency[relation_id])
        return self.extras[key]  # type: ignore[return-value]

    def relation_operator(self, relation_id: int, kind: str) -> SparseTensor:
        """The normalised propagation operator of one relation block.

        ``kind`` follows :meth:`GraphTensors.propagation`: ``"sym"`` and
        ``"rw"`` are normalised with self loops, ``"raw"`` is the plain
        weighted block.  Memoised per view and in the process-wide cache
        under the block's content fingerprint — a single-relation graph
        therefore shares the exact frozen CSR of the union operators.
        """
        key = f"relation_operator:{relation_id}:{kind}"
        if key not in self.extras:
            normalization = "none" if kind == "raw" else kind
            operator = compute_cache().normalized_adjacency(
                self.relation_adjacency[relation_id],
                normalization=normalization,
                self_loops=kind != "raw",
                fingerprint=self._relation_fingerprint(relation_id),
                dtype=self.features.data.dtype)
            self.extras[key] = SparseTensor(operator)
        return self.extras[key]  # type: ignore[return-value]

    def relation_block(self, relation_id: int) -> RelationBlock:
        """Edge-parallel view (self-looped, symmetrised structure) of a relation.

        Built with the exact recipe of the homogeneous attention edge list
        (``add_self_loops(adj).tocoo()`` in CSR row-major order), so the
        single-relation block is bit-compatible with
        ``GraphTensors.edge_index`` / ``edge_scatter``.
        """
        key = f"relation_block:{relation_id}"
        if key not in self.extras:
            structure = _norm.add_self_loops(self.relation_adjacency[relation_id])
            self.extras[key] = RelationBlock.from_structure(structure)
        return self.extras[key]  # type: ignore[return-value]

    def restrict_rows(self, rows: np.ndarray) -> "HeteroGraphTensors":
        """Typed views do not restrict (yet): every row is computed."""
        return self

    def with_features(self, features) -> "HeteroGraphTensors":
        """Feature-substituted copy preserving the relation blocks."""
        tensors = HeteroGraphTensors(
            features=features,
            adj_sym=self.adj_sym, adj_rw=self.adj_rw, adj_raw=self.adj_raw,
            edge_index=self.edge_index, edge_weight=self.edge_weight,
            num_nodes=self.num_nodes, num_features=int(features.shape[1]),
            graph_id=self.graph_id, num_graphs=self.num_graphs,
            cache_derived=self.cache_derived,
            relations=self.relations, node_type=self.node_type,
            relation_adjacency=self.relation_adjacency)
        return tensors


__all__ = [
    "HeteroGraph",
    "HeteroGraphTensors",
    "RelationBlock",
    "Relation",
]
