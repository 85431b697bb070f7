"""Workload generators behind one streaming :class:`Workload` protocol.

Each spec is its own workload: build it and consume ``.arrivals()``
lazily::

    from repro.workloads import SyntheticSpec

    for message in SyntheticSpec(...).arrivals():
        ...

``.materialize()`` returns the whole stream as a list when one is
genuinely needed.
"""

# The streaming protocol (the supported API).
from repro.workloads.api import RATE_SHAPES, RateShape, Workload, substream
from repro.workloads.distributions import (
    APP_CDFS,
    GRAPHLAB,
    HADOOP_SORT,
    MEMCACHED,
    SPARK_SORT,
    SPARK_SQL,
    SizeCdf,
    app_cdf,
    fixed_size,
)
from repro.workloads.shapes import IncastSpec, ShuffleSpec
from repro.workloads.synthetic import (
    SyntheticSpec,
    mean_wire_bytes,
    microbenchmark,
)
from repro.workloads.traces import TraceSpec, all_apps
from repro.workloads.ycsb import (
    READ_VALUE_BYTES,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_F,
    WORKLOADS,
    WRITE_VALUE_BYTES,
    OpType,
    YcsbWorkload,
    ZipfianKeyChooser,
    workload_by_name,
)

__all__ = [
    # Streaming protocol
    "RATE_SHAPES",
    "RateShape",
    "Workload",
    "substream",
    # Specs, each its own workload
    "IncastSpec",
    "ShuffleSpec",
    "SyntheticSpec",
    "TraceSpec",
    # Size distributions
    "APP_CDFS",
    "GRAPHLAB",
    "HADOOP_SORT",
    "MEMCACHED",
    "SPARK_SORT",
    "SPARK_SQL",
    "SizeCdf",
    "app_cdf",
    "fixed_size",
    "mean_wire_bytes",
    # YCSB mixes and ops
    "OpType",
    "READ_VALUE_BYTES",
    "WORKLOADS",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_F",
    "WRITE_VALUE_BYTES",
    "YcsbWorkload",
    "ZipfianKeyChooser",
    "workload_by_name",
    # Trace helpers
    "all_apps",
    # Convenience
    "microbenchmark",
]
