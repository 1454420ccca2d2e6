"""Deterministic multi-robot cooperation simulator.

Robots share knowledge through synchronous gossip, plan task selection,
polygon formations and straight-line routes under configurable priority
laws, and resolve plan conflicts through distributed negotiation. The
engine's tick loop is a pure function of the scenario, so runs, sweeps and
traces are exactly reproducible.
"""

from .world import (Position, RobotState, Task, EnergyModel, EnergyLedger,
                    ChargeKind, euclidean, polygon_vertices)
from .comms import COMPLETE, CommGraph, KnowledgeSet, build_graph, gossip
from .priority import (PriorityLaw, Criterion, NeedsOrderQueue,
                       compile_law, sort_queue, LOW_BATTERY_WITHDRAWAL)
from .selection import (SelectionPlan, estimate_cost, select,
                        InsufficientRobotsError)
from .formation import DistanceMatrix, FormationPlan, formation_assign
from .routing import next_step, detect_conflicts, cluster_conflicts
from .negotiation import (Phase, Proposal, AgreementOutcome, agreement,
                          negotiate, NegotiationResult, ExhaustedCriteriaError)
from .cata import CataWeights, collision_penalty, utility, cata_select
from .scenario import Scenario, RobotSpec, generate, InvalidScenarioError
from .engine import Engine, RunMetrics, TraceEvent, run
from .sweep import SweepSpec, run_sweep, summarize, CSV_COLUMNS

__all__ = [name for name in dir() if not name.startswith("_")]
