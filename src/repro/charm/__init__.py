"""A discrete-event simulator of a Charm++-like message-driven runtime.

The paper's EpiSimdemics runs on Charm++ on a Cray XE6.  We cannot run
Charm++ on 360K cores here, so this package *simulates* the runtime: it
executes the same chare-structured program (PersonManagers,
LocationManagers, completion detection, aggregation) under a
discrete-event scheduler that advances per-PE virtual clocks using a
calibrated machine/network cost model.  The program's *semantics* are
executed for real — the epidemic output is exact — while its *timing*
is modelled.  See DESIGN.md §2 and §5.

Components:

* :mod:`repro.charm.machine` — nodes × cores, SMP process layout
  (paper §IV-A), PE numbering;
* :mod:`repro.charm.network` — α–β communication costs with
  intra-process / intra-node / inter-node tiers, per-message CPU
  overheads, comm-thread offload;
* :mod:`repro.charm.chare` — chares, chare arrays, proxies;
* :mod:`repro.charm.scheduler` — the PDES engine (`RuntimeSimulator`);
* :mod:`repro.charm.reduction` — spanning-tree reductions/broadcasts;
* :mod:`repro.charm.completion` — completion detection (§IV-B) and
  quiescence detection, as real protocols with modelled wave costs;
* :mod:`repro.charm.aggregation` — TRAM-like message aggregation
  (§IV-C).
"""

from repro.charm.machine import MachineConfig, Machine, BLUE_WATERS_NODE
from repro.charm.network import NetworkModel, MessageCosts
from repro.charm.messages import Message, VISIT_BYTES, INFECT_BYTES, ENVELOPE_BYTES
from repro.charm.chare import Chare, ChareArray, ChareProxy
from repro.charm.scheduler import RuntimeSimulator
from repro.charm.reduction import ReductionTree
from repro.charm.completion import CompletionDetector, QuiescenceDetector, SyncProtocol
from repro.charm.aggregation import MessageAggregator
from repro.charm.tram import TramChannel
from repro.charm.loadbalance import greedy_lb, refine_lb, MigrationCostModel
from repro.charm.trace import Tracer, attach_tracer

__all__ = [
    "MachineConfig",
    "Machine",
    "BLUE_WATERS_NODE",
    "NetworkModel",
    "MessageCosts",
    "Message",
    "VISIT_BYTES",
    "INFECT_BYTES",
    "ENVELOPE_BYTES",
    "Chare",
    "ChareArray",
    "ChareProxy",
    "RuntimeSimulator",
    "ReductionTree",
    "CompletionDetector",
    "QuiescenceDetector",
    "SyncProtocol",
    "MessageAggregator",
    "TramChannel",
    "greedy_lb",
    "refine_lb",
    "MigrationCostModel",
    "Tracer",
    "attach_tracer",
]
