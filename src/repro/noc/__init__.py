"""Shared on-chip channel between cores and the memory controller.

The paper's probe points SC1 (core→MC request channel) and SC5
(MC→core response channel) live here: a shared link serving one
transaction per cycle with round-robin arbitration and a fixed
traversal latency.  Contention on this link is observable by an
adversary timing its own transfers, which is why ReqC sits *before*
the request link and RespC *before* the response link.
"""

from repro.noc.link import LinkPort, SharedLink

__all__ = ["LinkPort", "SharedLink"]
