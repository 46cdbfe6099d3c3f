"""Seeded benchmark inputs: instances, query streams, write streams.

The instance is fixed per workload (the I1 configuration of
``benchmarks/conftest.py``, or it scaled 2x); everything that varies
with ``--seed`` — which queries, in which order, which writes — is drawn
here and handed to the program as plain requests.  The program never
sees the seed.  :func:`fingerprint` hashes what was generated so two
runs with one seed provably served the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence

from repro.core import ComponentIndex, S3Instance
from repro.datasets import TwitterConfig, build_twitter_instance
from repro.queries.workload import (
    WorkloadBuilder,
    document_frequencies,
    frequency_buckets,
)

#: I1 as the repository benches build it.
I1_CONFIG = TwitterConfig(n_users=400, n_statuses=1200, seed=41)


def generate(scale: int) -> S3Instance:
    """The I1 instance scaled by *scale*."""
    config = I1_CONFIG if scale == 1 else I1_CONFIG.scaled(scale)
    return build_twitter_instance(config).instance


def _request(spec) -> Dict[str, object]:
    return {
        "seeker": str(spec.seeker),
        "keywords": [str(keyword) for keyword in spec.keywords],
        "k": spec.k,
    }


def key(request: Dict[str, object]) -> tuple:
    """A request's identity: seeker, keywords and k."""
    return (request["seeker"], tuple(request["keywords"]), request["k"])


def paper_grid_queries(instance: S3Instance, count: int, seed: int) -> List[dict]:
    """*count* distinct queries, the paper grid mix (f, l, k) in seeded order.

    Each of the eight ``qset_{f,l,k}`` cells contributes equally; the
    stream is shuffled so consecutive requests mix cells.
    """
    builder = WorkloadBuilder(instance, seed=seed)
    per_cell = count // 8 + 1
    queries: List[dict] = []
    seen = set()
    while len(queries) < count:
        for workload in builder.paper_grid(per_cell):
            for spec in workload.queries:
                request = _request(spec)
                if key(request) not in seen:
                    seen.add(key(request))
                    queries.append(request)
    queries = queries[:count]
    random.Random(seed).shuffle(queries)
    return queries


def zipf_indices(pool_size: int, count: int, exponent: float, seed: int) -> List[int]:
    """*count* draws from ``range(pool_size)`` with Zipf(*exponent*) popularity."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(pool_size)]
    return random.Random(seed).choices(range(pool_size), weights=weights, k=count)


class WriteStream:
    """Seeded delta-expressible writes, plus optional component merges.

    ``add_tag`` writes put a fresh tag on an existing document node;
    ``add_comment_edge`` writes attach a fresh comment to an existing
    node.  Both stay inside one component, so the delta gate accepts
    them.  A *merge* write comments from one existing document onto a
    node of a different component: the gate refuses it and the kernel
    rebuilds.  Component membership is tracked across merges so every
    merge really joins two components.
    """

    def __init__(self, instance: S3Instance, seed: int, label: str):
        self._rng = random.Random(seed)
        self._label = label
        self._serial = 0
        components = list(ComponentIndex(instance).components())
        self._nodes = sorted(str(node) for c in components for node in c.nodes)
        self._roots = {
            str(root): c.ident for c in components for root in c.roots
        }
        self._component_of = {
            str(node): c.ident for c in components for node in c.nodes
        }
        self._parent = {c.ident: c.ident for c in components}
        self._users = sorted(str(user) for user in instance.users)
        _, self._common = frequency_buckets(document_frequencies(instance))

    def _find(self, ident: int) -> int:
        while self._parent[ident] != ident:
            ident = self._parent[ident]
        return ident

    def tag(self) -> Dict[str, object]:
        self._serial += 1
        return {
            "op": "add_tag",
            "uri": f"{self._label}_t{self._serial}",
            "subject": self._rng.choice(self._nodes),
            "author": self._rng.choice(self._users),
            "keyword": str(self._rng.choice(self._common)),
        }

    def comment(self) -> Dict[str, object]:
        self._serial += 1
        return {
            "op": "add_comment_edge",
            "comment": f"{self._label}_c{self._serial}",
            "target": self._rng.choice(self._nodes),
        }

    def merge(self) -> Dict[str, object]:
        roots = sorted(self._roots)
        while True:
            comment = self._rng.choice(roots)
            target = self._rng.choice(self._nodes)
            a = self._find(self._roots[comment])
            b = self._find(self._component_of[target])
            if a != b:
                self._parent[b] = a
                return {"op": "add_comment_edge", "comment": comment, "target": target}


def fingerprint(instance: S3Instance, stream: Sequence[object]) -> Dict[str, str]:
    """Hashes of the generated instance and of the request / write stream."""
    shape = f"{instance.version}:{len(instance.graph)}"
    payload = json.dumps(stream, sort_keys=True, separators=(",", ":"))
    return {
        "instance": f"{shape}:" + hashlib.sha256(shape.encode()).hexdigest()[:16],
        "stream": hashlib.sha256(payload.encode()).hexdigest()[:16],
    }
