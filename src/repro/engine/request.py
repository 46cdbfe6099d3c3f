"""Typed serving requests and responses (the Engine wire format).

:class:`QueryRequest` is the single normalization point for everything
callers used to hand the kernel as ad-hoc ``(seeker, keywords[, k])``
tuples, ``QuerySpec`` objects or keyword arguments: construction
canonicalizes the seeker to a :class:`~repro.rdf.terms.URI` and the
keywords to the deduplicated term tuple the kernel coalesces on, so a
request *is* its own identity key — two requests for the same answer
compare (and hash) equal, which is what the batcher's in-flight
collapsing and the result cache key off.

:class:`QueryResponse` pairs the kernel's
:class:`~repro.core.search.SearchResult` with serving metadata (the
micro-batch the request rode in, whether it collapsed onto another
in-flight computation, the observed submission-to-answer latency) and
serializes to the JSONL shape of the ``serve`` subcommand.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.search import SearchResult, _normalize_keywords
from ..rdf.terms import Term, URI
from ..social.tags import Tag


def _int_at_least(name: str, value: object, minimum: int) -> object:
    """*value*, checked to be an integer (not a bool) >= *minimum*."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class QueryRequest:
    """One normalized S3k query: who asks, for what, and under which budget.

    ``semantic`` toggles keyword extension; ``max_iterations`` /
    ``time_budget`` activate the anytime termination (a request carrying
    either bypasses the result cache, exactly as the kernel does).
    """

    seeker: URI
    keywords: Tuple[Term, ...]
    k: int = 5
    semantic: bool = True
    max_iterations: Optional[int] = None
    time_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.keywords, (str, bytes)):
            # A bare string would be iterated character by character — an
            # easy JSON mistake ("keywords": "w0") that must not produce a
            # well-formed answer for the wrong query.
            raise TypeError(
                f"keywords must be a sequence of keywords, not a single "
                f"string: {self.keywords!r}"
            )
        object.__setattr__(self, "seeker", URI(self.seeker))
        object.__setattr__(self, "keywords", _normalize_keywords(self.keywords))
        object.__setattr__(self, "k", int(_int_at_least("k", self.k, 1)))
        if not isinstance(self.semantic, bool):
            raise TypeError(f"semantic must be a bool, got {self.semantic!r}")
        if self.max_iterations is not None:
            _int_at_least("max_iterations", self.max_iterations, 0)
        if self.time_budget is not None:
            budget = self.time_budget
            if isinstance(budget, bool) or not isinstance(budget, numbers.Real):
                raise TypeError(f"time_budget must be a number, got {budget!r}")
            if not 0 <= budget < math.inf:  # NaN fails both comparisons
                raise ValueError(
                    f"time_budget must be finite and >= 0, got {budget!r}"
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_obj(
        cls,
        obj: object,
        default_k: int = 5,
        semantic: bool = True,
        max_iterations: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> "QueryRequest":
        """Normalize any accepted query shape into a request.

        Accepts, in order of precedence:

        * a :class:`QueryRequest` — returned unchanged (it already carries
          its own settings);
        * a mapping with ``seeker`` / ``keywords`` keys and optional
          ``k`` / ``semantic`` / ``max_iterations`` / ``time_budget``
          (the JSONL ``serve`` shape);
        * any object with ``seeker`` / ``keywords`` attributes and an
          optional ``k`` (e.g. :class:`repro.queries.workload.QuerySpec`);
        * a ``(seeker, keywords)`` or ``(seeker, keywords, k)`` tuple.

        A missing / zero / ``None`` ``k`` falls back to *default_k*; the
        remaining defaults fill whatever the object does not specify.
        """
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, Mapping):
            unknown = set(obj) - _REQUEST_KEYS - {"id"}
            if unknown:
                raise TypeError(
                    f"unknown query fields {sorted(unknown)!r}; "
                    f"expected a subset of {sorted(_REQUEST_KEYS)}"
                )
            if "seeker" not in obj or "keywords" not in obj:
                raise TypeError(
                    "a query mapping needs at least 'seeker' and 'keywords', "
                    f"got {sorted(obj)!r}"
                )
            return cls(
                seeker=obj["seeker"],
                keywords=obj["keywords"],
                k=obj.get("k") or default_k,
                semantic=obj.get("semantic", semantic),
                max_iterations=obj.get("max_iterations", max_iterations),
                time_budget=obj.get("time_budget", time_budget),
            )
        if hasattr(obj, "seeker") and hasattr(obj, "keywords"):
            return cls(
                seeker=getattr(obj, "seeker"),
                keywords=getattr(obj, "keywords"),
                k=getattr(obj, "k", default_k) or default_k,
                semantic=getattr(obj, "semantic", semantic),
                max_iterations=getattr(obj, "max_iterations", max_iterations),
                time_budget=getattr(obj, "time_budget", time_budget),
            )
        if isinstance(obj, (tuple, list)):
            if len(obj) == 2:
                seeker, keywords = obj
                return cls(
                    seeker=seeker,
                    keywords=keywords,
                    k=default_k,
                    semantic=semantic,
                    max_iterations=max_iterations,
                    time_budget=time_budget,
                )
            if len(obj) == 3:
                seeker, keywords, query_k = obj
                return cls(
                    seeker=seeker,
                    keywords=keywords,
                    k=query_k or default_k,
                    semantic=semantic,
                    max_iterations=max_iterations,
                    time_budget=time_budget,
                )
        raise TypeError(
            "queries must be QueryRequest objects, mappings, "
            "(seeker, keywords[, k]) tuples or objects with seeker/keywords "
            f"attributes, got {obj!r}"
        )

    # ------------------------------------------------------------------
    @property
    def settings(self) -> Tuple:
        """Execution settings shared by one kernel ``search_many`` call."""
        return (self.semantic, self.max_iterations, self.time_budget)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable echo of the request."""
        payload: Dict[str, object] = {
            "seeker": str(self.seeker),
            "keywords": [str(keyword) for keyword in self.keywords],
            "k": self.k,
            "semantic": self.semantic,
        }
        if self.max_iterations is not None:
            payload["max_iterations"] = self.max_iterations
        if self.time_budget is not None:
            payload["time_budget"] = self.time_budget
        return payload


_REQUEST_KEYS = {f.name for f in fields(QueryRequest)}


@dataclass(frozen=True)
class MutationRequest:
    """One normalized write: a new tag or a new comment edge.

    The two ops mirror the incrementally propagatable
    :class:`~repro.core.instance.MutationDelta` shapes — anything else
    must go through the instance API directly (and pays a full kernel
    rebuild).  Construction canonicalizes every node reference to a
    :class:`~repro.rdf.terms.URI`, so a request is picklable and
    identical across the sharded broadcast.
    """

    op: str
    #: ``add_tag`` fields
    uri: Optional[URI] = None
    subject: Optional[URI] = None
    author: Optional[URI] = None
    keyword: Optional[str] = None
    tag_type: Optional[URI] = None
    #: ``add_comment_edge`` fields
    comment: Optional[URI] = None
    target: Optional[URI] = None
    relation: Optional[URI] = None

    def __post_init__(self) -> None:
        if self.op == "add_tag":
            if self.uri is None or self.subject is None or self.author is None:
                raise ValueError(
                    "an add_tag mutation needs 'uri', 'subject' and 'author'"
                )
            object.__setattr__(self, "uri", URI(self.uri))
            object.__setattr__(self, "subject", URI(self.subject))
            object.__setattr__(self, "author", URI(self.author))
            if self.tag_type is not None:
                object.__setattr__(self, "tag_type", URI(self.tag_type))
            if self.keyword is not None:
                object.__setattr__(self, "keyword", str(self.keyword))
        elif self.op == "add_comment_edge":
            if self.comment is None or self.target is None:
                raise ValueError(
                    "an add_comment_edge mutation needs 'comment' and 'target'"
                )
            object.__setattr__(self, "comment", URI(self.comment))
            object.__setattr__(self, "target", URI(self.target))
            if self.relation is not None:
                object.__setattr__(self, "relation", URI(self.relation))
        else:
            raise ValueError(
                f"unknown mutation op {self.op!r}; "
                "expected 'add_tag' or 'add_comment_edge'"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_obj(cls, obj: object) -> "MutationRequest":
        """Normalize a request object or a JSON mapping (the wire shape)."""
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, Mapping):
            if "op" not in obj:
                raise ValueError(
                    f"a mutation mapping needs an 'op' field, got {sorted(obj)!r}"
                )
            unknown = set(obj) - _MUTATION_KEYS - {"id"}
            if unknown:
                raise ValueError(
                    f"unknown mutation fields {sorted(unknown)!r}; "
                    f"expected a subset of {sorted(_MUTATION_KEYS)}"
                )
            return cls(**{key: obj[key] for key in obj if key != "id"})
        raise TypeError(
            "mutations must be MutationRequest objects or mappings with an "
            f"'op' field, got {obj!r}"
        )

    def to_tag(self) -> Tag:
        """The :class:`Tag` an ``add_tag`` request describes."""
        if self.op != "add_tag":
            raise ValueError(f"not an add_tag mutation: {self.op!r}")
        return Tag(
            uri=self.uri,
            subject=self.subject,
            author=self.author,
            keyword=self.keyword,
            tag_type=self.tag_type,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable echo of the mutation."""
        payload: Dict[str, object] = {"op": self.op}
        for name in (
            "uri",
            "subject",
            "author",
            "keyword",
            "tag_type",
            "comment",
            "target",
            "relation",
        ):
            value = getattr(self, name)
            if value is not None:
                payload[name] = str(value)
        return payload


_MUTATION_KEYS = {f.name for f in fields(MutationRequest)}


@dataclass
class MutationResponse:
    """Outcome of one applied mutation."""

    request: MutationRequest
    #: instance version after the write
    version: int
    #: how the kernel re-aligned: ``"delta"`` (incremental patch) or
    #: ``"rebuild"`` (full fallback)
    mode: str
    #: connection-index slabs rebuilt by the delta path (0 on rebuild)
    components_patched: int = 0
    #: submission-to-applied latency observed by the serving layer, seconds
    latency_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """The JSONL record the ``serve`` subcommand emits per mutation."""
        payload = self.request.to_dict()
        payload.update(
            {
                "version": self.version,
                "mode": self.mode,
                "components_patched": self.components_patched,
                "latency_ms": round(self.latency_seconds * 1e3, 3),
            }
        )
        return payload


@dataclass
class QueryResponse:
    """One served answer: the kernel result plus serving metadata."""

    request: QueryRequest
    result: SearchResult
    #: size of the micro-batch this request was computed in (1 for
    #: sequential `Engine.search`)
    batch_size: int = 1
    #: True when the request joined another identical in-flight request's
    #: computation instead of occupying its own batch slot
    collapsed: bool = False
    #: what dispatched the micro-batch: "size", "deadline", "close", or
    #: "sync" for the non-async entry points
    flush_reason: str = "sync"
    #: submission-to-answer latency observed by the serving layer, seconds
    latency_seconds: float = 0.0

    # -- result passthroughs (keep BatchStats / reporting code working) --
    @property
    def results(self) -> List:
        """Ranked results, in rank order."""
        return self.result.results

    @property
    def uris(self) -> List[URI]:
        return self.result.uris

    @property
    def wall_time(self) -> float:
        return self.result.wall_time

    def to_dict(self) -> Dict[str, object]:
        """The JSONL record the ``serve`` subcommand emits per answer."""
        payload = self.request.to_dict()
        payload.update(
            {
                "results": [
                    {"uri": str(r.uri), "lower": r.lower, "upper": r.upper}
                    for r in self.result.results
                ],
                "iterations": self.result.iterations,
                "terminated_by": self.result.terminated_by,
                "batch_size": self.batch_size,
                "collapsed": self.collapsed,
                "latency_ms": round(self.latency_seconds * 1e3, 3),
            }
        )
        return payload
