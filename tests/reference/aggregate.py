"""The row-at-a-time group-by the engine's chunk folds are held to.

The engine only accumulates chunks (``GroupByAggregate.accumulate_many``,
one bulk add per group and aggregate) and merges shipped partials
(``merge_partial``).  :class:`RowGroupBy` is the per-row meaning of both:
one dict row at a time, each state's scalar ``add``, group-by columns looked
up by name.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.operators.aggregate import GroupByAggregate
from repro.exceptions import QueryError


class RowGroupBy(GroupByAggregate):
    """A :class:`GroupByAggregate` fed one dict row at a time."""

    def _group_key(self, row: Dict[str, Any]) -> Tuple:
        try:
            return tuple(row[column] for column in self.group_by)
        except KeyError as error:
            raise QueryError(f"group-by column missing from row: {error}") from None

    def process(self, row: Dict[str, Any]) -> None:
        """Accumulate one dict row into its group."""
        states = self._states_for(self._group_key(row))
        for state, (_function, column, _alias, _param) in zip(states, self.aggregates):
            state.add(1 if column is None else row.get(column))
