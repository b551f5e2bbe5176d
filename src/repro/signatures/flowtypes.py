"""The flow-type lattice of Figure 4 and its operations.

Eight flow types ordered by perceived strength; each is keyed to one PDG
annotation, and a flow has type ``t`` when there is a source-to-sink path
using only edges whose annotation belongs to some type ≥ ``t``:

====== ================== =====
type   annotation         rank
====== ================== =====
type1  datastrong         0
type2  dataweak           1
type3  local^amp          2
type4  local              3
type5  nonlocexp^amp      3
type6  nonlocexp          4
type7  nonlocimp^amp      4
type8  nonlocimp          5
====== ================== =====

Types sharing a rank (type4/type5 and type6/type7) are incomparable;
every type at a smaller rank is stronger than every type at a larger
rank. This reproduces the paper's examples: ``extend(type4,
nonlocexp^amp) = type6``, ``extend(type3, nonlocexp^amp) = type5``, and
``max({type4, type5, type6}) = {type4, type5}``.

The paper notes the lattice is "independently configurable"; a custom
:class:`FlowTypeLattice` can reorder the ranks or re-key the annotations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.pdg.annotations import Annotation


class FlowType(enum.Enum):
    """One of the eight flow types of Figure 4."""

    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"
    TYPE4 = "type4"
    TYPE5 = "type5"
    TYPE6 = "type6"
    TYPE7 = "type7"
    TYPE8 = "type8"

    def __str__(self) -> str:
        return self.value


#: The paper's lattice: flow type -> (rank, keyed annotation).
DEFAULT_STRUCTURE: dict[FlowType, tuple[int, Annotation]] = {
    FlowType.TYPE1: (0, Annotation.DATA_STRONG),
    FlowType.TYPE2: (1, Annotation.DATA_WEAK),
    FlowType.TYPE3: (2, Annotation.LOCAL_AMP),
    FlowType.TYPE4: (3, Annotation.LOCAL),
    FlowType.TYPE5: (3, Annotation.NONLOC_EXP_AMP),
    FlowType.TYPE6: (4, Annotation.NONLOC_EXP),
    FlowType.TYPE7: (4, Annotation.NONLOC_IMP_AMP),
    FlowType.TYPE8: (5, Annotation.NONLOC_IMP),
}


@dataclass
class FlowTypeLattice:
    """The flow-type lattice, with the ``extend``/``max`` operations of
    Section 4.2. Instantiate with a custom ``structure`` to reconfigure
    perceived strengths."""

    structure: dict[FlowType, tuple[int, Annotation]] = field(
        default_factory=lambda: dict(DEFAULT_STRUCTURE)
    )
    # ``extend`` runs in the flow-type fixpoint's inner loop (once per
    # edge-annotation per flow type); its result depends only on the
    # lattice structure, which is fixed after construction, so it is
    # memoized per instance. At most |FlowType| x |Annotation| entries.
    _extend_cache: dict[tuple[FlowType, Annotation], FlowType] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _covering_cache: dict[frozenset[Annotation], FlowType] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def rank(self, flow_type: FlowType) -> int:
        return self.structure[flow_type][0]

    def stronger_or_equal(self, left: FlowType, right: FlowType) -> bool:
        """left ≥ right in the lattice (left is stronger)."""
        if left is right:
            return True
        return self.rank(left) < self.rank(right)

    def allowed_annotations(self, flow_type: FlowType) -> frozenset[Annotation]:
        """The PDG annotations a flow of this type may traverse: the
        annotations of every type at or above it."""
        return frozenset(
            annotation
            for other, (_rank, annotation) in self.structure.items()
            if self.stronger_or_equal(other, flow_type)
        )

    def extend(self, flow_type: FlowType, annotation: Annotation) -> FlowType:
        """The strongest flow type whose allowed annotations include both
        the given type's annotations and ``annotation``."""
        cached = self._extend_cache.get((flow_type, annotation))
        if cached is not None:
            return cached
        needed = self.allowed_annotations(flow_type) | {annotation}
        best: FlowType | None = None
        for candidate in sorted(self.structure, key=self.rank):
            if needed <= self.allowed_annotations(candidate):
                best = candidate
                break
        if best is None:  # pragma: no cover - TYPE8 allows everything
            best = self.weakest()
        self._extend_cache[(flow_type, annotation)] = best
        return best

    def covering_type(self, annotations: frozenset[Annotation]) -> FlowType:
        """The strongest flow type whose allowed annotations cover
        ``annotations`` (ties at a rank go to the first in rank order,
        exactly as ``extend`` breaks them). ``extend(t, a)`` is
        ``covering_type(allowed(t) | {a})``; calling this on the *exact*
        set of annotations a path uses avoids the over-approximation
        chained ``extend`` calls build up (an edge a type merely
        *allows* is not an edge the path *used*)."""
        cached = self._covering_cache.get(annotations)
        if cached is not None:
            return cached
        best = self.weakest()
        for candidate in sorted(self.structure, key=self.rank):
            if annotations <= self.allowed_annotations(candidate):
                best = candidate
                break
        self._covering_cache[annotations] = best
        return best

    def max(self, flow_types: set[FlowType]) -> set[FlowType]:
        """The strongest flow types of a set (an antichain: types not
        dominated by any other member)."""
        return {
            flow_type
            for flow_type in flow_types
            if not any(
                other is not flow_type
                and self.stronger_or_equal(other, flow_type)
                for other in flow_types
            )
        }

    def weakest(self) -> FlowType:
        return max(self.structure, key=self.rank)

    def strongest(self) -> FlowType:
        return min(self.structure, key=self.rank)

    def validate(self) -> None:
        """Check that a (possibly user-supplied) lattice structure is
        usable by the inference:

        - all eight flow types present, each keyed to a distinct
          annotation (so every PDG edge maps to exactly one type),
        - a unique strongest type (the seed of the fixpoint) and a unique
          weakest type (so ``extend`` is total).

        Raises ``ValueError`` with a precise message otherwise.
        """
        if set(self.structure) != set(FlowType):
            missing = set(FlowType) - set(self.structure)
            raise ValueError(f"lattice must map all flow types; missing {missing}")
        annotations = [annotation for _rank, annotation in self.structure.values()]
        if len(set(annotations)) != len(Annotation):
            raise ValueError(
                "lattice must key each flow type to a distinct annotation"
            )
        ranks = sorted(rank for rank, _ in self.structure.values())
        if ranks.count(ranks[0]) != 1:
            raise ValueError("lattice must have a unique strongest flow type")
        if ranks.count(ranks[-1]) != 1:
            raise ValueError("lattice must have a unique weakest flow type")


#: The lattice the paper uses (Figure 4).
DEFAULT_LATTICE = FlowTypeLattice()
