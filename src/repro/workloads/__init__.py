"""Synthetic workloads regenerating the deployment's traffic mix.

The paper evaluates with UDP flows, HTTP flows, and the live campus
mix of Figure 7/8 (web browsing, SSH, a BitTorrent surge, a malicious
web access).  :mod:`repro.workloads.flows` provides paced packet-level
flow generators for each application, with payloads that the l7 and
IDS elements genuinely classify; :mod:`repro.workloads.users` layers
user behaviour (join, browse, leave) and churn processes on top.
"""

from repro.workloads.flows import (
    AttackWebFlow,
    BitTorrentFlow,
    CbrUdpFlow,
    HttpFlow,
    PortScanFlow,
    SshFlow,
    TrafficFlow,
    VirusDownloadFlow,
)
from repro.workloads.users import UserBehavior, UserChurn

__all__ = [
    "TrafficFlow",
    "CbrUdpFlow",
    "HttpFlow",
    "SshFlow",
    "BitTorrentFlow",
    "AttackWebFlow",
    "PortScanFlow",
    "VirusDownloadFlow",
    "UserBehavior",
    "UserChurn",
]
