"""repro — a full Python reproduction of *EDM: An Ultra-Low Latency
Ethernet Fabric for Memory Disaggregation* (ASPLOS 2025).

Subpackages:

* :mod:`repro.core` — message model, clock constants, and the centralized
  in-network scheduler (priority-PIM, notification queues, grant engine).
* :mod:`repro.phy` — 66-bit PCS blocks, the encoder's block counts, and
  the intra-frame preemption mux.
* :mod:`repro.mac` — the Ethernet MAC baseline EDM bypasses.
* :mod:`repro.host` — the EDM host NIC stack.
* :mod:`repro.switchfab` — the EDM switch stack and the baseline L2 switch.
* :mod:`repro.memctrl` — DRAM and memory-controller substrate.
* :mod:`repro.sim` — discrete-event simulation engine.
* :mod:`repro.latency` — analytical Table 1 / Figure 5 models.
* :mod:`repro.fabrics` — EDM and the six baseline fabrics at cluster scale.
* :mod:`repro.workloads` — synthetic, YCSB, and application-trace loads.
* :mod:`repro.apps` — the remote key-value store application.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

__version__ = "1.0.0"

from repro.errors import ReproError

__all__ = ["ReproError", "__version__"]
