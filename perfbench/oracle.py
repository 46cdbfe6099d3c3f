"""Answer checking against a from-scratch kernel.

The writes a run had acknowledged are replayed onto an identically
generated instance, and :class:`~repro.core.S3kSearch` is built from
scratch over the result.  Served answers are compared with its answers
on result URIs and on both score bounds, bit for bit.  A mismatch fails
the run.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import S3Instance, S3kSearch
from repro.engine import MutationRequest

from .inputs import key

Answer = Tuple[Tuple[str, float, float], ...]


def answer_of(results: Iterable[object]) -> Answer:
    """URIs and score bounds of ranked results (objects or JSON records)."""
    out = []
    for item in results:
        if isinstance(item, dict):
            out.append((str(item["uri"]), float(item["lower"]), float(item["upper"])))
        else:
            out.append((str(item.uri), item.lower, item.upper))
    return tuple(out)


class Oracle:
    """Expected answers over *instance* after *writes* are applied to it."""

    def __init__(self, instance: S3Instance, writes: Sequence[Dict[str, object]]):
        for write in writes:
            request = MutationRequest.from_obj(write)
            if request.op == "add_tag":
                instance.add_tag(request.to_tag())
            else:
                instance.add_comment_edge(
                    request.comment, request.target, request.relation
                )
        self._kernel = S3kSearch(instance)
        self._answers: Dict[tuple, Answer] = {}

    def expected(self, request: Dict[str, object]) -> Answer:
        cached = self._answers.get(key(request))
        if cached is None:
            result = self._kernel.search(
                request["seeker"], request["keywords"], k=request["k"]
            )
            cached = self._answers[key(request)] = answer_of(result.results)
        return cached


class Checker:
    """Collects served answers; :meth:`mismatches` compares them."""

    def __init__(self) -> None:
        self.served: List[Tuple[Dict[str, object], Answer]] = []
        #: distinct requests compared by the last :meth:`mismatches`
        self.checked = 0

    def add(self, request: Dict[str, object], answer: Answer) -> None:
        self.served.append((request, answer))

    def mismatches(
        self, oracle: Oracle, sample: Optional[int] = None, seed: int = 0
    ) -> List[str]:
        """Served answers that differ from the oracle's.

        With *sample*, only the answers to a seeded sample of that many
        distinct requests are checked (every served copy of each).
        """
        keys = sorted({key(request) for request, _ in self.served})
        if sample is not None and sample < len(keys):
            keys = random.Random(seed).sample(keys, sample)
        chosen = set(keys)
        self.checked = len(chosen)
        wrong = []
        for request, answer in self.served:
            if key(request) in chosen and answer != oracle.expected(request):
                wrong.append(
                    f"{key(request)}: served {answer}, "
                    f"expected {oracle.expected(request)}"
                )
        return wrong
