"""The proximity engine: normalized transition structure over ``I``.

Implements the optimization of Section 5.2: instead of materializing
``borderPath`` (the set of all length-n paths), the engine keeps, for each
explored vertex, the *weighted sum* over all paths of length n from the
seeker — ``borderProx`` — and steps it with a sparse matrix-vector
product.  The matrix ``distance`` (paper's name) encodes the network edges
*after* path normalization and vertical-neighborhood traversal:

    ``T[v, m] = Σ_{e=(v'→m), v' ∈ neigh*(v)} e.w / W(v)``

where ``neigh*(v)`` is the closed vertical neighborhood of ``v`` and
``W(v)`` the total weight of the network edges leaving it.  A path "at"
``v`` (having entered the neighborhood through ``v``) moves to ``m`` with
probability-like mass ``T[v, m]``; rows sum to 1 (or 0 for sinks), which
yields the attenuation bounds of the concrete score.

The rows live in one sorted forward CSR ``T``; a vectorized mode steps
with its transpose (scipy CSR, the paper's RAM-resident sparse matrices)
and a naive pure-Python mode walks ``T``'s rows (for the ablation
benchmark and as an oracle in tests).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
from scipy import sparse

from ..rdf.namespaces import NETWORK_EDGE_PROPERTIES
from ..rdf.terms import URI
from .instance import S3Instance


class ProximityIndex:
    """Normalized transition structure with dense-vector stepping."""

    def __init__(self, instance: S3Instance, use_matrix: bool = True):
        self._instance = instance
        self.use_matrix = use_matrix
        self._nodes: List[URI] = sorted(instance.network_nodes())
        self._index: Dict[URI, int] = {uri: i for i, uri in enumerate(self._nodes)}
        self._neigh_cache: Dict[URI, np.ndarray] = {}
        self._build_transition()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes in the social-path universe."""
        return len(self._nodes)

    def node_index(self, uri: URI) -> int:
        """Dense index of *uri*; raises ``KeyError`` when unknown."""
        return self._index[uri]

    def node_index_of(self, uri: URI) -> Optional[int]:
        """Dense index of *uri*, or ``None`` when not in the universe."""
        return self._index.get(uri)

    def node_uri(self, index: int) -> URI:
        return self._nodes[index]

    # ------------------------------------------------------------------
    def _out_edges(
        self, members: Iterable[URI]
    ) -> Dict[URI, List[Tuple[int, float]]]:
        """Raw network out-edges of *members*, member → sorted
        [(target index, weight)] (members without in-universe edges are
        left out)."""
        edges: Dict[URI, List[Tuple[int, float]]] = {}
        for member in members:
            entries: List[Tuple[int, float]] = []
            for target, weight, _pred in self._instance.network_out_edges(member):
                target_index = self._index.get(target)
                if target_index is not None and weight > 0.0:
                    entries.append((target_index, weight))
            if entries:
                entries.sort()
                edges[member] = entries
        return edges

    def _merged_row(
        self, uri: URI, own_edges: Dict[URI, List[Tuple[int, float]]]
    ) -> Tuple[List[int], List[float]]:
        """One normalized transition row as ascending ``(targets,
        values)`` — shared by full builds and delta patches so both
        produce bit-identical float sequences.  Members and targets are
        summed in sorted order, so the bits do not depend on set or
        graph iteration order (and hence not on the string-hash seed)."""
        merged: Dict[int, float] = defaultdict(float)
        for member in sorted(self._instance.vertical_neighborhood(uri)):
            for target_index, weight in own_edges.get(member, ()):
                merged[target_index] += weight
        targets = sorted(merged)
        weights = [merged[target_index] for target_index in targets]
        total = sum(weights)
        if total <= 0.0:
            return [], []
        return targets, [weight / total for weight in weights]

    def _set_transition(
        self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
    ) -> None:
        """Install the forward CSR ``T`` (rows sorted) and derive a fresh
        transposed stepping matrix from it."""
        n = len(self._nodes)
        #: forward transition, one sorted CSR row per node: the only row
        #: store (naive stepping, :meth:`transition_row`, delta splices).
        self._transition = sparse.csr_matrix(
            (data, indices, indptr), shape=(n, n), dtype=np.float64
        )
        #: transposed transition, so that ``next = T^T @ border`` is a
        #: single CSR mat-vec; each row lists its sources in ascending
        #: order.
        self._transition_t = self._transition.transpose().tocsr()

    def _build_transition(self) -> None:
        own_edges = self._out_edges(self._nodes)
        indptr = np.zeros(len(self._nodes) + 1, dtype=np.int64)
        indices: List[int] = []
        data: List[float] = []
        for v, uri in enumerate(self._nodes):
            targets, values = self._merged_row(uri, own_edges)
            indices.extend(targets)
            data.extend(values)
            indptr[v + 1] = len(indices)
        self._set_transition(
            indptr,
            np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Transition placement (SlabStore hooks)
    # ------------------------------------------------------------------
    def transition_arrays(self) -> Optional[Dict[str, np.ndarray]]:
        """The transposed-transition CSR arrays, for placement in a
        :class:`~repro.storage.slab_store.SlabStore` (``None`` in naive
        mode — it never steps with the matrix)."""
        if not self.use_matrix:
            return None
        matrix = self._transition_t
        return {
            "data": matrix.data,
            "indices": matrix.indices,
            "indptr": matrix.indptr,
        }

    def adopt_transition(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rebuild the stepping matrix around externally placed CSR
        arrays (read-only shm / mmap views) — zero-copy: stepping is
        pure ``T^T @ border`` reads, so shared pages are never written.
        """
        n = len(self._nodes)
        matrix = sparse.csr_matrix(
            (arrays["data"], arrays["indices"], arrays["indptr"]),
            shape=(n, n),
            copy=False,
        )
        # The exported arrays came from a sorted canonical CSR; recording
        # that here keeps scipy from ever trying to (re)sort — which
        # would write into the read-only shared buffers.
        matrix.has_sorted_indices = True
        matrix.has_canonical_format = True
        self._transition_t = matrix

    # ------------------------------------------------------------------
    # Delta patching (incremental maintenance)
    # ------------------------------------------------------------------
    def apply_delta(
        self, edge_sources: Iterable[URI]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Patch the transition after new nodes / network edges appeared.

        *edge_sources* are the subjects of the new (or re-weighted)
        network-edge triples.  Because the vertical-neighbor relation is
        symmetric, the rows whose merged out-edges can change are exactly
        the closed vertical neighborhoods of those sources — every such
        row (plus every row of a node new to the universe) is recomputed
        with :meth:`_merged_row` and spliced into new arrays for the
        forward CSR ``T`` (the other rows are remapped and copied by
        whole-array numpy operations; Python visits only the affected
        rows), then a fresh ``T^T`` is derived, so a possibly-adopted
        shm/mmap CSR is never written in place.  Returns ``(old_to_new,
        affected_rows)``: the old→new dense index map when the universe
        grew (``None`` when indices are unchanged) and the sorted new
        dense indices of every recomputed row — a query whose
        exploration never touched one of those rows steps
        bit-identically before and after the patch.

        The caller must ensure the mutation only *added* universe nodes;
        a shrunk universe raises ``ValueError`` (fall back to a full
        rebuild).
        """
        instance = self._instance
        current = instance.network_nodes()
        added = sorted(current.difference(self._index))
        if len(current) != len(self._nodes) + len(added):
            raise ValueError(
                "network universe shrank; the proximity index cannot be "
                "patched incrementally"
            )
        matrix = self._transition
        counts = np.diff(matrix.indptr).astype(np.int64)
        indices = matrix.indices
        old_to_new: Optional[np.ndarray] = None
        if added:
            old_nodes = self._nodes
            # Both lists are sorted: an old node moves up by the number
            # of added nodes that sort before it.
            inserted_at = np.asarray(
                [bisect_left(old_nodes, uri) for uri in added], dtype=np.int64
            )
            positions = np.arange(len(old_nodes), dtype=np.int64)
            old_to_new = positions + np.searchsorted(
                inserted_at, positions, side="right"
            )
            self._nodes = list(old_nodes)
            for uri in added:
                insort(self._nodes, uri)
            self._index = dict(zip(self._nodes, range(len(self._nodes))))
            # The map is monotone, so remapped rows stay sorted; new
            # nodes start with empty rows.
            remapped_counts = np.zeros(len(self._nodes), dtype=np.int64)
            remapped_counts[old_to_new] = counts
            counts = remapped_counts
            indices = old_to_new[indices]
            # Neighborhood membership is unchanged by node additions
            # (documents are untouched), only dense indices shifted.
            self._neigh_cache = {
                uri: old_to_new[cached]
                for uri, cached in self._neigh_cache.items()
            }

        sources: Set[URI] = set(edge_sources)
        # A node new to the universe also un-filters any pre-existing
        # network edge pointing at it: the edge's subject rows change too.
        for uri in added:
            for wt in instance.graph.triples(obj=uri):
                if wt.predicate in NETWORK_EDGE_PROPERTIES:
                    sources.add(wt.subject)
        affected: Set[URI] = set(added)
        for source in sources:
            if source not in self._index:
                continue
            affected.update(
                member
                for member in instance.vertical_neighborhood(source)
                if member in self._index
            )
        needed: Set[URI] = set()
        for uri in affected:
            needed.update(instance.vertical_neighborhood(uri))
        own_edges = self._out_edges(needed)
        affected_rows = np.fromiter(
            sorted(self._index[uri] for uri in affected),
            dtype=np.int64,
            count=len(affected),
        )

        # Splice: keep the unaffected stretches between affected rows,
        # put each recomputed row in its place.
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        index_pieces: List[np.ndarray] = []
        data_pieces: List[np.ndarray] = []
        kept_from = 0
        for row in affected_rows.tolist():
            targets, values = self._merged_row(self._nodes[row], own_edges)
            index_pieces += [
                indices[offsets[kept_from] : offsets[row]],
                np.asarray(targets, dtype=np.int64),
            ]
            data_pieces += [
                matrix.data[offsets[kept_from] : offsets[row]],
                np.asarray(values, dtype=np.float64),
            ]
            counts[row] = len(targets)
            kept_from = row + 1
        index_pieces.append(indices[offsets[kept_from] :])
        data_pieces.append(matrix.data[offsets[kept_from] :])
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._set_transition(
            indptr, np.concatenate(index_pieces), np.concatenate(data_pieces)
        )
        return old_to_new, affected_rows

    # ------------------------------------------------------------------
    # Border propagation
    # ------------------------------------------------------------------
    def start_vector(self, seeker: URI) -> np.ndarray:
        """``δ_u``: unit mass on the seeker."""
        border = np.zeros(self.size, dtype=np.float64)
        border[self._index[seeker]] = 1.0
        return border

    def step(self, border: np.ndarray) -> np.ndarray:
        """One exploration step: mass of paths one edge longer."""
        if self.use_matrix:
            return self._transition_t @ border
        return self._step_naive(border)

    def step_many(self, borders: np.ndarray) -> np.ndarray:
        """Advance many borders at once with a single mat-mat product.

        *borders* is a ``(size, n_queries)`` array holding one exploration
        border per column; the result has the same shape and each column
        equals ``step(borders[:, j])`` bit for bit — scipy's CSR mat-mat
        accumulates every output column in the same element order as the
        corresponding mat-vec, so batched execution stays exactly
        reproducible against sequential runs.
        """
        if borders.ndim != 2 or borders.shape[0] != self.size:
            raise ValueError(
                f"expected a ({self.size}, n) border matrix, "
                f"got shape {borders.shape!r}"
            )
        if borders.shape[1] == 0:
            return borders.copy()
        if self.use_matrix:
            return self._transition_t @ borders
        return np.column_stack(
            [self._step_naive(borders[:, j]) for j in range(borders.shape[1])]
        )

    def _row(self, v: int) -> Tuple[List[int], List[float]]:
        """Row *v* of the forward transition as ascending ``(targets,
        values)`` lists."""
        matrix = self._transition
        lo, hi = matrix.indptr[v], matrix.indptr[v + 1]
        return matrix.indices[lo:hi].tolist(), matrix.data[lo:hi].tolist()

    def _step_naive(self, border: np.ndarray) -> np.ndarray:
        """Pure-Python propagation (ablation / oracle).  Sources are
        visited in ascending order, so each target sums its incoming
        mass in the same order as the CSR mat-vec."""
        result = np.zeros_like(border)
        for v in np.nonzero(border)[0]:
            mass = border[v]
            for target_index, weight in zip(*self._row(v)):
                result[target_index] += mass * weight
        return result

    def transition_row(self, uri: URI) -> Dict[int, float]:
        """Normalized out-transitions of *uri* (over its neighborhood)."""
        return dict(zip(*self._row(self._index[uri])))

    # ------------------------------------------------------------------
    # Source proximity
    # ------------------------------------------------------------------
    def closed_neighborhood_indices(self, uri: URI) -> np.ndarray:
        """Dense indexes of *uri* and its vertical neighbors.

        A path reaches a source when it ends at the source or at one of
        its vertical neighbors, so the proximity *to* a source sums the
        accumulated mass over this closed neighborhood.
        """
        cached = self._neigh_cache.get(uri)
        if cached is None:
            members = self._instance.vertical_neighborhood(uri)
            cached = np.fromiter(
                (self._index[m] for m in sorted(members) if m in self._index),
                dtype=np.int64,
            )
            self._neigh_cache[uri] = cached
        return cached

    def source_proximity(self, accumulated: np.ndarray, source: URI) -> float:
        """``prox≤n(u, source)`` from the accumulated per-node proximities."""
        indices = self.closed_neighborhood_indices(source)
        if indices.size == 0:
            return 0.0
        return float(accumulated[indices].sum())
