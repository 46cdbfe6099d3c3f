"""Delta patches of the proximity transition equal a from-scratch build.

Contracts under test:

* **patch equals build** — after every delta of a seeded random
  sequence of tags (some growing the universe with a new author, some on
  tags, some keyword-less) and comment edges (fresh comments and edges
  between existing multi-node documents), ``ProximityIndex.apply_delta``
  leaves node order and the forward / transposed CSR bytes identical to a
  fresh ``ProximityIndex(instance)``; ``old_to_new`` is the old→new
  position map and ``affected_rows`` the closed vertical neighborhoods
  of the edge sources plus the new nodes — in matrix and naive mode;
* **adopted arrays stay untouched** — a transition first adopted from
  read-only arrays patches into fresh arrays and never writes the
  adopted ones;
* **hash-seed independence** — I1's transition bytes do not depend on
  ``PYTHONHASHSEED``.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import S3Instance
from repro.core.prox import ProximityIndex
from repro.rdf import URI
from repro.rdf.namespaces import NETWORK_EDGE_PROPERTIES
from repro.rdf.saturation import saturate_from
from repro.social import Tag

from .instance_gen import VOCABULARY, random_instance

#: Random instances, and deltas applied to each, for the property sweep.
N_SEQUENCES = 12
N_DELTAS = 8


def _random_write(rng: random.Random, instance: S3Instance, serial: int) -> None:
    """One random tag or comment edge on *instance*."""
    nodes = sorted(
        node.uri for doc in instance.documents.values() for node in doc.nodes()
    )
    roll = rng.random()
    if roll < 0.55:
        subject_pool = nodes + sorted(instance.tags) if rng.random() < 0.3 else nodes
        author = (
            URI(f"new_u{serial}")
            if rng.random() < 0.4
            else rng.choice(sorted(instance.users))
        )
        keyword = rng.choice(VOCABULARY) if rng.random() < 0.7 else None
        subject = rng.choice(subject_pool)
        instance.add_tag(Tag(URI(f"delta_t{serial}"), subject, author, keyword=keyword))
    elif roll < 0.75:
        instance.add_comment_edge(URI(f"delta_c{serial}"), rng.choice(nodes))
    else:
        comment = rng.choice(sorted(instance.documents))
        target = rng.choice([node for node in nodes if node != comment])
        instance.add_comment_edge(comment, target)


def _apply(prox: ProximityIndex, instance: S3Instance, version: int):
    """Close the graph over the new triples and patch *prox*; returns
    ``(edge sources, apply_delta's result)``."""
    frontier = [
        triple
        for delta in instance.deltas_since(version)
        for triple in delta.new_triples
    ]
    derived = saturate_from(instance.graph, frontier)
    instance.mark_saturated()
    sources = {
        triple.subject
        for triple in [*frontier, *derived]
        if triple.predicate in NETWORK_EDGE_PROPERTIES
    }
    return sources, prox.apply_delta(sources)


def _expected_affected(instance, fresh, sources, added):
    """The rows a delta can change: every node new to the universe, plus
    the closed vertical neighborhoods of the edge sources and of the
    subjects of network edges into the new nodes."""
    sources = set(sources)
    for uri in added:
        for triple in instance.graph.triples(obj=uri):
            if triple.predicate in NETWORK_EDGE_PROPERTIES:
                sources.add(triple.subject)
    rows = {fresh.node_index(uri) for uri in added}
    for source in sources:
        if fresh.node_index_of(source) is not None:
            rows.update(
                fresh.node_index(member)
                for member in instance.vertical_neighborhood(source)
                if fresh.node_index_of(member) is not None
            )
    return np.array(sorted(rows), dtype=np.int64)


def _assert_same_csr(patched, built):
    assert patched.shape == built.shape
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(patched, name), getattr(built, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name


def _assert_equals_build(prox: ProximityIndex, instance: S3Instance) -> ProximityIndex:
    fresh = ProximityIndex(instance, use_matrix=prox.use_matrix)
    assert prox._nodes == fresh._nodes
    assert prox._index == fresh._index
    _assert_same_csr(prox._transition, fresh._transition)
    _assert_same_csr(prox._transition_t, fresh._transition_t)
    return fresh


class TestPatchEqualsBuild:
    @pytest.mark.parametrize("use_matrix", [True, False])
    @pytest.mark.parametrize("seed", range(N_SEQUENCES))
    def test_random_delta_sequence(self, seed, use_matrix):
        rng = random.Random(5000 + seed)
        instance = random_instance(rng, n_users=5, n_docs=6)
        prox = ProximityIndex(instance, use_matrix=use_matrix)
        grew = multi_member_rows = 0
        for serial in range(N_DELTAS):
            old_nodes = list(prox._nodes)
            version = instance.version
            _random_write(rng, instance, serial)
            sources, (old_to_new, affected_rows) = _apply(prox, instance, version)
            fresh = _assert_equals_build(prox, instance)

            added = sorted(set(fresh._nodes) - set(old_nodes))
            if added:
                grew += 1
                expected_map = [fresh.node_index(uri) for uri in old_nodes]
                assert old_to_new.dtype == np.int64
                assert old_to_new.tolist() == expected_map
            else:
                assert old_to_new is None
            expected = _expected_affected(instance, fresh, sources, added)
            assert affected_rows.dtype == np.int64
            assert affected_rows.tolist() == expected.tolist()
            multi_member_rows += sum(
                len(instance.vertical_neighborhood(fresh.node_uri(row))) > 1
                for row in affected_rows.tolist()
            )

            # Rows agree with the fresh build, and stepping (naive mode
            # included) with its CSR mat-mat, bit for bit.
            for uri in fresh._nodes:
                assert prox.transition_row(uri) == fresh.transition_row(uri)
            borders = np.zeros((prox.size, 3))
            for column in range(3):
                borders[rng.randrange(prox.size), column] = 1.0
                borders[rng.randrange(prox.size), column] += 0.5
            for _ in range(3):
                stepped = prox.step_many(borders)
                assert stepped.tobytes() == (fresh._transition_t @ borders).tobytes()
                borders = stepped
        # The sequence exercised what it is meant to.
        assert grew and multi_member_rows


class TestAdoptedTransition:
    def test_delta_leaves_read_only_adopted_arrays_untouched(self):
        rng = random.Random(91)
        instance = random_instance(rng, n_users=5, n_docs=6)
        prox = ProximityIndex(instance)
        adopted = {}
        for name, array in prox.transition_arrays().items():
            frozen = array.copy()
            frozen.flags.writeable = False
            adopted[name] = frozen
        before = {name: array.copy() for name, array in adopted.items()}
        prox.adopt_transition(adopted)
        assert np.shares_memory(prox._transition_t.data, adopted["data"])

        for serial in range(4):
            version = instance.version
            _random_write(rng, instance, serial)
            _apply(prox, instance, version)
            _assert_equals_build(prox, instance)

        for name, array in adopted.items():
            assert not array.flags.writeable
            assert array.tobytes() == before[name].tobytes(), name
        assert not np.shares_memory(prox._transition_t.data, adopted["data"])


_TRANSITION_DIGEST = """
import hashlib
from repro.core.prox import ProximityIndex
from repro.datasets import TwitterConfig, build_twitter_instance
instance = build_twitter_instance(
    TwitterConfig(n_users=400, n_statuses=1200, seed=41)
).instance
matrix = ProximityIndex(instance)._transition_t
for name in ("data", "indices", "indptr"):
    print(name, hashlib.sha256(getattr(matrix, name).tobytes()).hexdigest())
"""


class TestHashSeedIndependence:
    def test_i1_transition_bytes_do_not_depend_on_the_hash_seed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", _TRANSITION_DIGEST],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            digests.append(completed.stdout)
        assert digests[0].count("\n") == 3
        assert digests[0] == digests[1]
