"""Coherence protocols: MESI baseline and the Protozoa family.

The state-snapshot names the model checker uses (:mod:`.snapshot`) are
bound on first access; a simulation never needs them.  Import them from
this package: the ``snapshot`` function shares its module's name, and
a direct import of the module would leave the module bound here.
"""

from repro._lazy import lazy_names
from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import MsgCategory, MsgType
from repro.coherence.mesi import MESIProtocol
from repro.coherence.protozoa_sw import ProtozoaSWProtocol
from repro.coherence.protozoa_multi import ProtozoaMWProtocol, ProtozoaSWMRProtocol
from repro.coherence.protocol_base import CoherenceProtocol

__getattr__, __dir__ = lazy_names(__name__, globals(), dict.fromkeys(
    ("ProtocolSnapshot", "canonical_key", "restore", "snapshot"),
    "repro.coherence.snapshot"))

__all__ = [
    "CoherenceProtocol",
    "ProtocolSnapshot",
    "canonical_key",
    "restore",
    "snapshot",
    "Directory",
    "DirectoryEntry",
    "MESIProtocol",
    "MsgCategory",
    "MsgType",
    "ProtozoaMWProtocol",
    "ProtozoaSWMRProtocol",
    "ProtozoaSWProtocol",
]
