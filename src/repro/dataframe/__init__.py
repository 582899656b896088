"""Lightweight columnar table engine used as the data substrate for CauSumX.

The original prototype relies on pandas; this package provides the subset of
relational functionality the algorithms need — typed columns, predicate
evaluation, selection, projection, group-by-average, functional-dependency
detection, sampling, and design-matrix encoding — implemented on numpy.

Categorical data is *dictionary-encoded* throughout: each categorical
:class:`Column` stores an ``int32`` code array plus an immutable sorted
vocabulary, and every consumer (predicate kernels, one-hot encoding, the
:class:`GroupByIndex` behind group-by aggregation, candidate-value
enumeration) operates on the codes.  Slicing preserves encodings, so
sub-populations inherit their parent's codes for free.
"""

from repro.dataframe.column import Column, LazyColumn, MISSING_CODE
from repro.dataframe.predicates import Op, Pattern, Predicate
from repro.dataframe.groupby import GroupByIndex
from repro.dataframe.maskcache import CacheStats, MaskCache
from repro.dataframe.table import Table
from repro.dataframe.functional_deps import fd_holds, fd_closure, grouping_attribute_partition
from repro.dataframe.encoding import design_matrix, design_rows, one_hot
from repro.dataframe.io import read_csv, write_csv

__all__ = [
    "CacheStats",
    "Column",
    "GroupByIndex",
    "LazyColumn",
    "MISSING_CODE",
    "MaskCache",
    "Op",
    "Pattern",
    "Predicate",
    "Table",
    "fd_holds",
    "fd_closure",
    "grouping_attribute_partition",
    "design_matrix",
    "design_rows",
    "one_hot",
    "read_csv",
    "write_csv",
]
