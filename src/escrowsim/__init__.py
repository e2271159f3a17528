"""Deterministic simulator for escrow-settled monetization of on-demand services."""

from .contracts import (
    AgreementContract,
    ConstraintTerms,
    ContractKind,
    ContractState,
    FlexibleTerms,
    IncomeShares,
    QuotaTerms,
    Settlement,
)
from .errors import InvariantViolation, SimulationError
from .ledger import Block, GasSchedule, Ledger
from .oracle import oracle_settlement
from .orchestrator import SessionOrchestrator
from .pricing import QosPreferences, Quote, RateCard, compare_fee_methods, quote_price
from .report import SettlementReport
from .scenario import ScenarioScript, generate_random_script, parse_scenario, run_scenario
from .units import eth, format_eth, gwei, parse_wei

__version__ = "0.1.0"

__all__ = [
    "AgreementContract",
    "Block",
    "ConstraintTerms",
    "ContractKind",
    "ContractState",
    "FlexibleTerms",
    "GasSchedule",
    "IncomeShares",
    "InvariantViolation",
    "Ledger",
    "QosPreferences",
    "Quote",
    "QuotaTerms",
    "RateCard",
    "ScenarioScript",
    "SessionOrchestrator",
    "Settlement",
    "SettlementReport",
    "SimulationError",
    "compare_fee_methods",
    "eth",
    "format_eth",
    "generate_random_script",
    "gwei",
    "oracle_settlement",
    "parse_scenario",
    "parse_wei",
    "quote_price",
    "run_scenario",
]
