"""On-disk sharded columnar storage beneath the dataframe and serving layers.

``repro.storage`` decouples durable state from the serving workers: datasets
live on disk as sharded, dictionary-encoded columnar files with a JSON
manifest (schema, shared interned vocabularies, zone maps, monotonic
version), loads are memory-mapped and lazy, scans prune whole shards through
per-shard zone maps, appends are crash-safe atomic commits, and the
explanation engine can snapshot/restore its registrations and summary cache
for warm restarts (``repro serve --store``).

Entry points:

* :class:`DatasetStore` — a store root holding many datasets + engine state;
* :class:`StoredDataset` — one dataset directory (manifest + shards);
* :class:`ShardedTable` — the lazily-loaded, zone-map-pruned ``Table`` view;
* :func:`~repro.storage.zonemap.shard_may_match` — the per-predicate pushdown.
"""

from repro.storage.dataset import ShardedTable, StoredDataset
from repro.storage.format import (
    FORMAT_VERSION,
    Manifest,
    ShardInfo,
    StorageError,
)
from repro.storage.shard import open_shard, write_shard
from repro.storage.store import DatasetStore, config_from_dict, config_to_dict
from repro.storage.zonemap import (
    categorical_zone_map,
    numeric_zone_map,
    shard_may_match,
)

__all__ = [
    "DatasetStore",
    "FORMAT_VERSION",
    "Manifest",
    "ShardInfo",
    "ShardedTable",
    "StorageError",
    "StoredDataset",
    "categorical_zone_map",
    "config_from_dict",
    "config_to_dict",
    "numeric_zone_map",
    "open_shard",
    "shard_may_match",
    "write_shard",
]
