"""The paper's contribution: device grouping mechanisms for NB-IoT multicast.

Three mechanisms (paper Sec. III), all planning against the same fleet
and cell abstractions and all producing a validated
:class:`~repro.core.plan.MulticastPlan`:

* :class:`~repro.core.dr_sc.DrScMechanism` — DRX-Respecting,
  Standards-Compliant: greedy set cover over TI-windows, many
  transmissions;
* :class:`~repro.core.da_sc.DaScMechanism` — DRX-Adjusting,
  Standards-Compliant: temporary cycle shortening, single transmission;
* :class:`~repro.core.dr_si.DrSiMechanism` — DRX-Respecting,
  Standards-Incompliant: extended paging + T322 timer, single
  transmission;

plus the :class:`~repro.core.unicast.UnicastBaseline` the evaluation
normalises against.
"""

from repro.core.plan import (
    DeviceDirective,
    DirectiveArrays,
    MulticastPlan,
    Transmission,
    WakeMethod,
)
from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.dr_sc import DrScMechanism
from repro.core.da_sc import AdaptationStrategy, DaScMechanism
from repro.core.dr_si import DrSiMechanism
from repro.core.unicast import UnicastBaseline
from repro.core.registry import (
    MECHANISMS,
    mechanism_by_name,
    mechanism_factory,
    register_mechanism,
)

__all__ = [
    "WakeMethod",
    "DeviceDirective",
    "DirectiveArrays",
    "Transmission",
    "MulticastPlan",
    "PlanningContext",
    "GroupingMechanism",
    "DrScMechanism",
    "DaScMechanism",
    "AdaptationStrategy",
    "DrSiMechanism",
    "UnicastBaseline",
    "MECHANISMS",
    "mechanism_by_name",
    "mechanism_factory",
    "register_mechanism",
]
