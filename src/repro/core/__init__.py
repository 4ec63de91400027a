"""The LiveSec controller: the paper's primary contribution.

The controller (:mod:`repro.core.controller`) is a NOX-style
application over :mod:`repro.openflow` that provides the three headline
capabilities of the paper:

* **interactive policy enforcement** (:mod:`repro.core.policy`,
  :mod:`repro.core.routing`) -- a global policy table steers flows
  through off-path service elements with 4 flow entries per steered
  connection and blocks attacking flows at their ingress switch,
* **distributed load balancing** (:mod:`repro.core.loadbalance`,
  :mod:`repro.core.services`) -- flow- or user-grain dispatch over
  VM-based service elements using polling / hash / queuing /
  minimum-load algorithms fed by in-band load reports,
* **application-aware visualization** (:mod:`repro.core.events`,
  :mod:`repro.core.visualization`) -- a global event log with live
  topology snapshots and history replay.

:mod:`repro.core.deployment` assembles a full LiveSec network
(topology + controller + channels + elements) in one call and is the
entry point used by the examples and benchmarks.
"""

from repro.core.controller import LiveSecController
from repro.core.deployment import LiveSecNetwork, build_livesec_network
from repro.core.policy import CompiledPolicyTable, Policy, PolicyAction, PolicyTable
from repro.core.policy_compiler import (
    CompileResult,
    PolicyConflictError,
    PolicyIntent,
    compile_intents,
)
from repro.core.loadbalance import (
    Dispatcher,
    HashDispatcher,
    LeastConnectionsDispatcher,
    MinLoadDispatcher,
    RoundRobinDispatcher,
)
from repro.core.nib import NetworkInformationBase
from repro.core.events import EventLog, NetworkEvent
from repro.core.visualization import MonitoringComponent

__all__ = [
    "LiveSecController",
    "LiveSecNetwork",
    "build_livesec_network",
    "Policy",
    "PolicyAction",
    "PolicyTable",
    "PolicyIntent",
    "PolicyConflictError",
    "CompiledPolicyTable",
    "CompileResult",
    "compile_intents",
    "Dispatcher",
    "HashDispatcher",
    "LeastConnectionsDispatcher",
    "MinLoadDispatcher",
    "RoundRobinDispatcher",
    "NetworkInformationBase",
    "EventLog",
    "NetworkEvent",
    "MonitoringComponent",
]
