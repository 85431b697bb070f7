"""Workload generators behind one streaming :class:`Workload` protocol.

Build any workload from its spec with :func:`workload_from_spec` and
consume ``.arrivals()`` lazily::

    from repro.workloads import SyntheticSpec, workload_from_spec

    stream = workload_from_spec(SyntheticSpec(...))
    for message in stream.arrivals():
        ...

``.materialize()`` returns the whole stream as a list when one is
genuinely needed.
"""

# The streaming protocol and its spec lookup (the supported API).
from repro.workloads.api import (
    RATE_SHAPES,
    RateShape,
    Workload,
    substream,
    workload_from_spec,
)
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
from repro.workloads.streaming import (
    IncastWorkload,
    ShuffleWorkload,
    SyntheticWorkload,
    TraceWorkload,
    YcsbOpsWorkload,
    YcsbSpec,
)
from repro.workloads.synthetic import (
    SyntheticSpec,
    mean_wire_bytes,
    microbenchmark,
)
from repro.workloads.traces import TraceSpec, all_apps, validate_app
from repro.workloads.ycsb import (
    READ_VALUE_BYTES,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_F,
    WORKLOADS,
    WRITE_VALUE_BYTES,
    OpType,
    YcsbOp,
    YcsbWorkload,
    ZipfianKeyChooser,
    workload_by_name,
)

__all__ = [
    # Streaming protocol + spec lookup
    "RATE_SHAPES",
    "RateShape",
    "Workload",
    "substream",
    "workload_from_spec",
    # Specs
    "IncastSpec",
    "ShuffleSpec",
    "SyntheticSpec",
    "TraceSpec",
    "YcsbSpec",
    # Streaming workload families
    "IncastWorkload",
    "ShuffleWorkload",
    "SyntheticWorkload",
    "TraceWorkload",
    "YcsbOpsWorkload",
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
    "YcsbOp",
    "YcsbWorkload",
    "ZipfianKeyChooser",
    "workload_by_name",
    # Trace helpers
    "all_apps",
    "validate_app",
    # Convenience
    "microbenchmark",
]
