"""VM-based security service elements (Section III.D).

Service elements are off-path middleboxes living in the
Network-Periphery layer: ordinary hosts from the switch's point of
view, identified to the controller only through the in-band message
channel.  Each runs a *service daemon* that sends periodic online/load
messages and event reports, and a processing engine with an explicit
capacity model so overload is observable.

* :mod:`repro.elements.base` -- the capacity model and daemon,
* :mod:`repro.elements.ids` -- Snort-like intrusion detection,
* :mod:`repro.elements.l7filter` -- l7-filter-like protocol
  identification,
* :mod:`repro.elements.scanner` -- virus scanning,
* :mod:`repro.elements.signatures` -- the rule/pattern definitions.
"""

from repro.elements.base import ServiceElement
from repro.elements.ids import IntrusionDetectionElement
from repro.elements.l7filter import ProtocolIdentificationElement
from repro.elements.scanner import VirusScanElement

ELEMENT_TYPES = {
    "ids": IntrusionDetectionElement,
    "l7": ProtocolIdentificationElement,
    "virus": VirusScanElement,
}

__all__ = [
    "ServiceElement",
    "IntrusionDetectionElement",
    "ProtocolIdentificationElement",
    "VirusScanElement",
    "ELEMENT_TYPES",
]
