"""Live asyncio service façade over a LIRA deployment.

``python -m repro.service --socket /tmp/lira.sock`` runs a server;
:mod:`repro.loadtest` drives it with an open-loop workload.  The wire
format is length-prefixed frames of a JSON header and raw array buffers,
decoded as zero-copy views (:mod:`repro.service.framing`).
"""

from repro.service.framing import (
    Frame,
    FrameError,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.service.service import IngestResult, LiraService, ServiceConfig

__all__ = [
    "Frame",
    "FrameError",
    "IngestResult",
    "LiraService",
    "ServiceConfig",
    "decode_frame",
    "encode_frame",
    "read_frame",
]
