"""Group-by-average query layer (the class of queries CauSumX explains)."""

from repro.sql.query import (
    GroupByAvgQuery,
    normalize_literal,
    normalize_query,
    parse_query,
)
from repro.sql.view import AggregateView, GroupResult

__all__ = [
    "GroupByAvgQuery",
    "parse_query",
    "normalize_literal",
    "normalize_query",
    "AggregateView",
    "GroupResult",
]
