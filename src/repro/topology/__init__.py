"""Composable switching topologies: specs, deterministic routing, substrate.

The ``topology`` package owns the *shape* of the network between hosts,
decoupled from any one fabric's switch model:

* :mod:`repro.topology.spec` — frozen :class:`TopologySpec` shapes
  (``single``, ``leaf-spine``), the ``parse_topology`` string form, and
  the shared leaf/trunk arithmetic.
* :mod:`repro.topology.routing` — :class:`EcmpHasher`, seed-stable
  per-(src, dst)-pair spine selection with no RNG draws.
* :mod:`repro.topology.substrate` — :class:`SubstrateTopology`, the
  live-run link/switch surface handed to ``topology_hook`` consumers
  (fault injection, instrumentation) on every tier.

The full contract — determinism, oversubscription semantics, fault
visibility — is documented in docs/TOPOLOGY.md.
"""

from repro.topology.routing import EcmpHasher
from repro.topology.spec import SINGLE, TOPOLOGY_KINDS, TopologySpec, parse_topology
from repro.topology.substrate import SubstrateTopology

__all__ = [
    "SINGLE",
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "parse_topology",
    "EcmpHasher",
    "SubstrateTopology",
]
