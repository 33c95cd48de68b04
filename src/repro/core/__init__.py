"""Camouflage: bin-based memory traffic shaping (the paper's contribution).

One mechanism — a queue in front of a link whose releases are timed by
a policy and topped up with fake traffic — deployed once per direction:

* :class:`RequestCamouflage` (ReqC) — the request station: shapes a
  core's request stream before the shared channel; defends pin/bus
  monitoring.
* :class:`ResponseCamouflage` (RespC) — the response station: shapes a
  core's response stream at the controller egress; buffers, emits fake
  responses and raises scheduler priority warnings; defends memory
  side/covert channels.  Both on one core is BDC.

*When* a station may release is its release policy (protocol in
:mod:`repro.core.shaper`):

* :class:`BinShaper` — Camouflage's credit machinery over a
  :class:`BinSpec` / :class:`BinConfiguration` (10 bins over
  exponential inter-arrival intervals, 10-bit credit registers):
  replenishment, consumption, unused-credit latching, fake-traffic
  scheduling.  :func:`constant_rate_config` is the CS (Ascend-style)
  degenerate configuration: a single credited bin.
* :class:`EpochRatePolicy` — Fletcher'14: a constant rate per epoch,
  chosen from a :class:`RateSet`.
* :class:`Passthrough` — no shaping, so every core's paths are built
  uniformly.
"""

from repro.core.bins import (
    BinConfiguration,
    BinSpec,
    constant_rate_config,
    uniform_config,
)
from repro.core.distribution import InterArrivalHistogram
from repro.core.serialization import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.core.shaper import BinShaper, Passthrough, ShaperState
from repro.core.request_shaper import RequestCamouflage
from repro.core.response_shaper import ResponseCamouflage
from repro.core.epoch_shaper import EpochRatePolicy, RateSet
from repro.core.hardware_cost import (
    ShaperCost,
    bdc_per_core_cost,
    request_shaper_cost,
    response_shaper_cost,
)

__all__ = [
    "BinConfiguration",
    "BinShaper",
    "BinSpec",
    "EpochRatePolicy",
    "RateSet",
    "InterArrivalHistogram",
    "Passthrough",
    "RequestCamouflage",
    "ResponseCamouflage",
    "ShaperCost",
    "ShaperState",
    "bdc_per_core_cost",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "request_shaper_cost",
    "response_shaper_cost",
    "save_config",
    "constant_rate_config",
    "uniform_config",
]
