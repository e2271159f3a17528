"""Deterministic simulator for escrow-settled monetization of on-demand services.

The package loads each module on first use (PEP 562): a public name, or a
module such as ``escrowsim.oracle``, is imported when it is first read, so
``import escrowsim.scenario`` loads only what the scenario layer imports.
"""

import sys

__version__ = "0.1.0"

# exported name -> the module that defines it
_HOMES = {
    "AgreementContract": "contracts",
    "Block": "ledger",
    "ConstraintTerms": "contracts",
    "ContractKind": "contracts",
    "ContractState": "contracts",
    "FlexibleTerms": "contracts",
    "GasSchedule": "ledger",
    "IncomeShares": "contracts",
    "InvariantViolation": "errors",
    "Ledger": "ledger",
    "QosPreferences": "pricing",
    "Quote": "pricing",
    "QuotaTerms": "contracts",
    "RateCard": "pricing",
    "ScenarioScript": "script",
    "SessionOrchestrator": "orchestrator",
    "Settlement": "contracts",
    "SettlementReport": "report",
    "SimulationError": "errors",
    "compare_fee_methods": "pricing",
    "eth": "units",
    "format_eth": "units",
    "generate_random_script": "script",
    "gwei": "units",
    "oracle_settlement": "oracle",
    "parse_scenario": "script",
    "parse_wei": "units",
    "quote_price": "pricing",
    "run_scenario": "scenario",
}
_MODULES = frozenset(_HOMES.values())

__all__ = list(_HOMES)


def _module(home: str):
    # __import__ rather than importlib.import_module, so -X importtime lists it
    qualified = f"{__name__}.{home}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)  # the import also binds it on the package
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_module(home), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_MODULES})
