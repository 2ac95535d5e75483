"""Message envelopes and wire-size accounting.

The paper's §IV optimisations include "reducing buffering overhead and
message size"; our message-size constants below reflect the optimised
layout (packed visit records).  Sizes feed the α–β network model — the
epidemic payloads themselves are carried live (one Python object per
message, columnar :class:`~repro.charm.aggregation.RecordBatch` chunks
per flushed aggregation buffer), only their *modelled* size is timed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Message", "VISIT_BYTES", "INFECT_BYTES", "ENVELOPE_BYTES", "CONTROL_BYTES"]

#: Packed visit record: person id (4) + location id (4) + start (2) +
#: end (2) + sublocation (2) + health state (1) + flags (1).
VISIT_BYTES = 16
#: Infect message: person id (4) + minute (2) + location id (4) + meta (2).
INFECT_BYTES = 12
#: Charm++ envelope per network message (headers, routing).
ENVELOPE_BYTES = 56
#: Small protocol/control message payload (reductions, CD waves).
CONTROL_BYTES = 8

_seq = itertools.count()


@dataclass(order=False)
class Message:
    """A runtime message addressed to a chare entry method.

    ``payload_bytes`` is the modelled wire size *excluding* envelope;
    the network model adds :data:`ENVELOPE_BYTES` per physical message.
    ``payload`` is the live data handed to the entry method.
    """

    array: str
    index: int
    method: str
    payload: Any = None
    payload_bytes: int = CONTROL_BYTES
    src_pe: int = -1
    #: Monotone id for deterministic tie-breaking in the event heap.
    seq: int = field(default_factory=lambda: next(_seq))

    def wire_bytes(self) -> int:
        return self.payload_bytes + ENVELOPE_BYTES
