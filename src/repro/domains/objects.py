"""Abstract objects: property maps keyed by abstract strings.

JavaScript property names are computed strings, so an abstract object
stores

- ``properties``: a map from *exact* property names to values, and
- ``unknown``: a single summary value for everything ever written through
  a non-exact (prefix/⊤) property name.

Reads and writes take an abstract property name (:class:`Prefix`); the
strong/weak distinction needed by the paper's read/write sets (a strong
property write = singleton object + exact name) is decided by the caller,
which knows whether the object address is a singleton.

Function values are objects whose ``closures`` set carries the IR
function ids they may call (this is how the control-flow analysis part of
the reduced product is represented); native browser APIs carry a
``native`` tag instead, interpreted by :mod:`repro.browser.stubs`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.domains import values as values_domain
from repro.domains.prefix import Prefix
from repro.domains.values import AbstractValue


@dataclass(frozen=True, eq=False)
class AbstractObject:
    """One abstract heap object (immutable).

    Hot-path constructions are *interned* (:func:`interned_object`):
    structurally equal objects become one instance, so heap joins across
    fixpoint rounds hit their identity fast paths instead of re-merging
    equal property maps. The hash is memoized for the intern table."""

    kind: str = "object"  # object | array | function | regex | native
    closures: frozenset[int] = frozenset()
    native: str | None = None
    properties: tuple[tuple[str, AbstractValue], ...] = ()
    unknown: AbstractValue = values_domain.BOTTOM

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbstractObject):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.closures == other.closures
            and self.native == other.native
            and self.properties == other.properties
            and self.unknown == other.unknown
        )

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((
                self.kind, self.closures, self.native,
                self.properties, self.unknown,
            ))
            object.__setattr__(self, "_hash", value)
            return value

    # The tuple encoding keeps the dataclass hashable/immutable; access
    # goes through this cached view. The dict is built once per object
    # and must be treated as read-only (mutating call sites copy it).
    def _props(self) -> dict[str, AbstractValue]:
        try:
            return self._props_cache  # type: ignore[attr-defined]
        except AttributeError:
            cache = dict(self.properties)
            object.__setattr__(self, "_props_cache", cache)
            return cache

    @staticmethod
    def _pack(props: dict[str, AbstractValue]) -> tuple[tuple[str, AbstractValue], ...]:
        return tuple(sorted(props.items()))

    # ------------------------------------------------------------------
    # Lattice

    def leq(self, other: "AbstractObject") -> bool:
        if self.kind != other.kind and other.kind != "object":
            pass  # kinds joined to "object" when they disagree
        mine = self._props()
        theirs = other._props()
        for name, value in mine.items():
            bound = theirs.get(name)
            if bound is None:
                # A property missing on the right is summarized by its
                # unknown value joined with undefined.
                bound = other.unknown.join(values_domain.UNDEF)
            if not value.leq(bound):
                return False
        return (
            self.closures <= other.closures
            and self.unknown.leq(other.unknown)
        )

    def join(self, other: "AbstractObject") -> "AbstractObject":
        if self is other:
            return self
        mine = self._props()
        theirs = other._props()
        merged: dict[str, AbstractValue] = {}
        for name in set(mine) | set(theirs):
            left = mine.get(name)
            right = theirs.get(name)
            if left is None:
                # Present on one side only: may be absent, so join with
                # undefined to record the possible miss.
                merged[name] = right.join(values_domain.UNDEF)  # type: ignore[union-attr]
            elif right is None:
                merged[name] = left.join(values_domain.UNDEF)
            elif left is right:
                merged[name] = left
            else:
                merged[name] = left.join(right)
        kind = self.kind if self.kind == other.kind else "object"
        closures = self.closures | other.closures
        native = self.native if self.native == other.native else None
        properties = self._pack(merged)
        unknown = self.unknown.join(other.unknown)
        # Identity-preserving: joins at state merges almost always leave
        # one side unchanged; reuse it so heap-level `is` checks hold.
        if (
            kind == self.kind
            and closures == self.closures
            and native == self.native
            and unknown is self.unknown
            and properties == self.properties
        ):
            return self
        if (
            kind == other.kind
            and closures == other.closures
            and native == other.native
            and unknown is other.unknown
            and properties == other.properties
        ):
            return other
        return interned_object(AbstractObject(
            kind=kind,
            closures=closures,
            native=native,
            properties=properties,
            unknown=unknown,
        ))

    def widen(self, other: "AbstractObject") -> "AbstractObject":
        """Widening: ``old.widen(joined)`` with ``self ⊑ other`` —
        property values and the unknown summary widen component-wise
        (:meth:`AbstractValue.widen`)."""
        if other is self:
            return self
        mine = self._props()
        theirs = other._props()
        changed = False
        widened: dict[str, AbstractValue] = {}
        for name, value in theirs.items():
            old = mine.get(name)
            if old is None or old is value:
                widened[name] = value
            else:
                result = old.widen(value)
                widened[name] = result
                if result is not value:
                    changed = True
        unknown = other.unknown
        if self.unknown is not unknown:
            unknown = self.unknown.widen(unknown)
            if unknown is not other.unknown:
                changed = True
        if not changed:
            return other
        return interned_object(
            replace(other, properties=self._pack(widened), unknown=unknown)
        )

    # ------------------------------------------------------------------
    # Property access

    def read(self, name: Prefix) -> AbstractValue:
        """Abstract property read. Missing properties yield ``undefined``
        (ES5 semantics), joined with the unknown summary."""
        props = self._props()
        concrete = name.concrete()
        if concrete is not None:
            value = props.get(concrete)
            if value is None:
                return self.unknown.join(values_domain.UNDEF)
            return value.join(self.unknown)
        # Non-exact name: every property it admits, plus the summary,
        # plus undefined (it may name a property that does not exist).
        result = self.unknown.join(values_domain.UNDEF)
        for prop_name, value in props.items():
            if name.admits(prop_name):
                result = result.join(value)
        return result

    def write(self, name: Prefix, value: AbstractValue, strong: bool) -> "AbstractObject":
        """Abstract property write. ``strong`` is only honored for exact
        names (the caller has established the object is a singleton).
        Identity-preserving: a write that changes nothing returns
        ``self``, so heap tries keep sharing their subtrees."""
        props = self._props()
        concrete = name.concrete()
        if concrete is not None:
            old = props.get(concrete)
            if strong:
                if old is value:
                    return self
                new_value = value
            else:
                base = old if old is not None else self.unknown.join(values_domain.UNDEF)
                new_value = base.join(value)
                if new_value is old:
                    return self
            updated = dict(props)
            updated[concrete] = new_value
            return interned_object(replace(self, properties=self._pack(updated)))
        # Non-exact name: the write may hit any admitted existing
        # property (weakly) and anything else (the unknown summary).
        changed = False
        updated = dict(props)
        for prop_name, old in props.items():
            if name.admits(prop_name):
                joined = old.join(value)
                if joined is not old:
                    updated[prop_name] = joined
                    changed = True
        unknown = self.unknown.join(value)
        if not changed and unknown is self.unknown:
            return self
        return interned_object(
            replace(self, properties=self._pack(updated), unknown=unknown)
        )

    def delete(self, name: Prefix, strong: bool) -> "AbstractObject":
        props = self._props()
        concrete = name.concrete()
        if concrete is not None and strong:
            if concrete not in props:
                return self
            updated = dict(props)
            updated.pop(concrete, None)
            return interned_object(replace(self, properties=self._pack(updated)))
        # Weak delete: the property may or may not be removed.
        changed = False
        updated = dict(props)
        for prop_name, old in props.items():
            if name.admits(prop_name):
                joined = old.join(values_domain.UNDEF)
                if joined is not old:
                    updated[prop_name] = joined
                    changed = True
        if not changed:
            return self
        return interned_object(replace(self, properties=self._pack(updated)))

    def __str__(self) -> str:
        parts = [self.kind]
        if self.closures:
            parts.append(f"closures={sorted(self.closures)}")
        if self.native:
            parts.append(f"native={self.native}")
        for name, value in self.properties:
            parts.append(f"{name}: {value}")
        if not self.unknown.is_bottom:
            parts.append(f"*: {self.unknown}")
        return "{" + ", ".join(parts) + "}"


#: Hash-consing table; bounded like the value intern table (overflow
#: means new objects stay un-interned — a perf miss, never a result
#: change).
_OBJECT_INTERN: dict[AbstractObject, AbstractObject] = {}
_OBJECT_INTERN_LIMIT = 131_072


def interned_object(obj: AbstractObject) -> AbstractObject:
    """The canonical instance structurally equal to ``obj``."""
    cached = _OBJECT_INTERN.get(obj)
    if cached is not None:
        return cached
    if len(_OBJECT_INTERN) < _OBJECT_INTERN_LIMIT:
        _OBJECT_INTERN[obj] = obj
    return obj


def function_object(*fids: int) -> AbstractObject:
    """A function value that may call any of the given IR functions."""
    return interned_object(AbstractObject(kind="function", closures=frozenset(fids)))


def native_object(tag: str, kind: str = "native") -> AbstractObject:
    """A native browser API object, interpreted by the stub registry."""
    return interned_object(AbstractObject(kind=kind, native=tag))
