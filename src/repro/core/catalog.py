"""Catalog manager (a "future work" item of the paper, implemented here).

The paper notes that declarative queries need a catalog and that the catalog
facility should "reuse the DHT and query processor".  This module provides a
local, in-memory catalog mapping relation names to
:class:`repro.core.tuples.RelationDef`; the SQL planner resolves table names
against it.  Relation statistics, the metadata the optimizer reads across
nodes, reach the DHT with the rows they describe (see
:func:`repro.core.stats.publisher_batches`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.tuples import Column, RelationDef, Schema
from repro.exceptions import CatalogError


class Catalog:
    """Relation-name → definition mapping."""

    def __init__(self) -> None:
        self._relations: Dict[str, RelationDef] = {}

    def register(self, relation: RelationDef, replace: bool = False) -> RelationDef:
        """Add a relation definition; refuses silent redefinition."""
        existing = self._relations.get(relation.name)
        if existing is not None and not replace:
            raise CatalogError(f"relation {relation.name!r} already registered")
        self._relations[relation.name] = relation
        return relation

    def define(self, name: str, columns, primary_key: Optional[str] = None,
               namespace: Optional[str] = None,
               tuple_bytes: Optional[int] = None) -> RelationDef:
        """Convenience: build and register a relation from column specs.

        ``columns`` may be a list of :class:`Column` or ``(name, type)`` pairs.
        """
        built = []
        for column in columns:
            if isinstance(column, Column):
                built.append(column)
            else:
                column_name, column_type = column
                built.append(Column(column_name, column_type))
        relation = RelationDef(
            name=name,
            schema=Schema(built),
            namespace=namespace,
            primary_key=primary_key,
            tuple_bytes=tuple_bytes,
        )
        return self.register(relation)

    def lookup(self, name: str) -> RelationDef:
        """Return the definition of ``name`` or raise :class:`CatalogError`."""
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relations(self) -> List[str]:
        """Names of all registered relations."""
        return sorted(self._relations)

    def drop(self, name: str) -> None:
        """Remove a relation definition."""
        if name not in self._relations:
            raise CatalogError(f"unknown relation {name!r}")
        del self._relations[name]
