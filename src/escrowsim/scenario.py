"""The runner: ``run_scenario`` executes a parsed ``script.ScenarioScript``.

An event at time t executes in the first block whose timestamp is >= t; events
sharing a block run in script order.  A run is deterministic, report bytes
included.  Its finished records go to a ``report.SettlementReport`` to render.
"""

from __future__ import annotations

from . import contracts as sc
from .contracts import AgreementContract
from .errors import SimulationError, ValidationError, collector_paused, echo
from .ledger import Ledger
from .orchestrator import SessionOrchestrator, SessionRecord
from .report import SettlementReport
from .script import (  # the event types annotate the handlers
    ApproveAndPay, CastVote, Countersign, DeployBallot, EndSession, QosSample, QuotaPurchase,
    QuotaStart, QuotaStop, RequestSession, ScenarioScript, ScriptEvent, Tally, Transfer,
    handler_table, resolve_payment,
)

# Unused here: bench/ and tools/ call the two script names through this module,
# so the wrappers bench/tracing.py puts on these three names here are what they
# run.  write_report looks export_contract up in ``report``, so its wrapper
# records nothing.
from .report import export_contract  # noqa: F401
from .script import generate_random_script, parse_scenario  # noqa: F401


class _Runner:
    def __init__(self, script: ScenarioScript) -> None:
        cfg = script.config
        self.script = script
        self.ledger = Ledger(
            script.genesis,
            gas=cfg.gas,
            block_interval=cfg.block_interval,
            jitter_seed=cfg.jitter_seed,
        )
        self.orch = SessionOrchestrator(
            self.ledger,
            rate_card=cfg.rate_card,
            provider_region=cfg.provider_region,
            provider_gdpr_compliant=cfg.provider_gdpr_compliant,
            refund_threshold_bp=cfg.refund_threshold_bp,
        )
        self.sessions: dict[str, SessionRecord] = {}
        self.ballots: dict[str, AgreementContract] = {}
        self.errors: list[dict] = []

    def run(self, corrupt_wei: int = 0) -> SettlementReport:
        ledger, deliver = self.ledger, self.orch.on_wakeup
        for index, event in enumerate(self.script.events):
            ledger.advance_to(event.at_time, deliver)
            try:
                _RUNNER_HANDLERS[type(event)](self, event)
            except SimulationError as exc:
                self._record_error(index, event, type(exc).__name__, str(exc))
        horizon = self.script.config.run_until_seconds
        if horizon is not None:
            ledger.advance_to(horizon, deliver)
        ledger.drain_wakeups(deliver)
        if corrupt_wei:
            # fault-injection hook: mint wei out of thin air so the
            # conservation verdict trips (the benchmark's --corrupt-script and tests)
            first = next(iter(ledger.accounts))
            ledger.accounts[first] += corrupt_wei
        return self._build_report()

    def _record_error(self, index: int, event: ScriptEvent, name: str, detail: str) -> None:
        self.errors.append(
            {
                "event_index": index,
                "at_time": event.at_time,
                "actor": event.actor,
                "action": event.action,
                "error": name,
                "detail": detail,
            }
        )

    def _session(self, label: str) -> SessionRecord:
        if label not in self.sessions:
            raise ValidationError(f"unknown session label {echo(label)}")
        return self.sessions[label]

    def _ballot(self, label: str) -> AgreementContract:
        if label not in self.ballots:
            raise ValidationError(f"unknown ballot label {echo(label)}")
        return self.ballots[label]

    # ---- one handler per event type -----------------------------------------

    def _request_session(self, ev: RequestSession) -> None:
        self.sessions[ev.session] = self.orch.request_session(
            ev.actor,
            ev.owner,
            ev.prefs,
            constraints=ev.constraints,
            shares=ev.shares,
            ballot=self._ballot(ev.ballot) if ev.ballot is not None else None,
            flexible=ev.standby,
        )

    def _approve_and_pay(self, ev: ApproveAndPay) -> None:
        session = self._session(ev.session)
        value = resolve_payment(ev.value, session.contract.price)
        self.orch.user_approve_and_pay(session, value, payer=ev.actor)

    def _countersign(self, ev: Countersign) -> None:
        self.orch.countersign_and_deploy(self._session(ev.session), ev.actor)

    def _qos_sample(self, ev: QosSample) -> None:
        self.orch.record_qos_sample(self._session(ev.session), ev.available)

    def _end_session(self, ev: EndSession) -> None:
        self.orch.end_session(self._session(ev.session), caller=ev.actor)

    def _quota_purchase(self, ev: QuotaPurchase) -> None:
        session = self._session(ev.session)
        value = resolve_payment(ev.value, sc.quota_cost(session.contract, ev.minutes))
        self.orch.quota_purchase(session, ev.minutes, value, payer=ev.actor)

    def _quota_start(self, ev: QuotaStart) -> None:
        self.orch.quota_start(self._session(ev.session), caller=ev.actor)

    def _quota_stop(self, ev: QuotaStop) -> None:
        self.orch.quota_stop(self._session(ev.session), caller=ev.actor)

    def _deploy_ballot(self, ev: DeployBallot) -> None:
        self.ballots[ev.ballot] = self.orch.deploy_consensus(ev.actor, set(ev.voters))

    def _cast_vote(self, ev: CastVote) -> None:
        sc.cast_vote(self.ledger, self._ballot(ev.ballot), ev.actor, ev.choice)

    def _tally(self, ev: Tally) -> None:
        sc.tally_and_enact(self._ballot(ev.ballot))

    def _transfer(self, ev: Transfer) -> None:
        self.ledger.transfer(ev.actor, ev.to, ev.value)

    # ---- report ------------------------------------------------------------

    def _build_report(self) -> SettlementReport:
        """The report of the finished run: its top-level values, and its own
        contracts, session records and ballots, which ``to_json_text`` writes
        row by row; no row is copied out of them here."""
        ledger = self.ledger
        # a label used again names only its latest session; the earlier one's is ""
        labels = {record.contract.address: label for label, record in self.sessions.items()}
        report = {
            "final_balances": {
                name: str(ledger.accounts[name]) for name in sorted(ledger.accounts)
            },
            "fee_sink_wei": str(ledger.fee_sink),
            "conservation_ok": ledger.conservation_check(),
            "final_block": {
                "height": ledger.height,
                "timestamp": ledger.timestamp,
            },
            # in sc-1, sc-2, ... order: register_contract adds them so and none is removed
            "contracts": list(ledger.contracts.values()),
            "sessions": [
                (labels.get(address, ""), record)
                for address, record in self.orch.sessions.items()
            ],
            "ballots": list(self.ballots.items()),
            "events_applied": len(self.script.events) - len(self.errors),
            "event_errors": self.errors,
            "tx_digest": ledger.tx_log_digest(),
        }
        return SettlementReport(report=report)


_RUNNER_HANDLERS = handler_table(_Runner)


@collector_paused
def run_scenario(script: ScenarioScript, corrupt_wei: int = 0) -> SettlementReport:
    """Execute a parsed script to its horizon and build the report."""
    return _Runner(script).run(corrupt_wei)
