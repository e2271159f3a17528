"""Quote generation and payment-fee economics.

Prices come from a deterministic rate card: a base wei-per-second rate
scaled by video-quality, availability, and constraint multipliers, all in
basis points, with a single floor at the end.  The fee comparison table
reproduces the published card/PayPal percentage ranges against a flat,
amount-independent gas fee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .contracts import BP_SCALE, ContractKind, FlexibleTerms, IDENTITY_MULTIPLIER_BP
from .errors import GasPriceOutOfRange, InvalidPreferences, echo
from .ledger import GAS_PRICE_BOUNDS_GWEI
from .units import WEI_PER_ETH, WEI_PER_GWEI, require_amount

VIDEO_MULTIPLIER_BP = {"SD": 10_000, "HD": 15_000}


@dataclass(frozen=True)
class QosPreferences:
    """End-user service preferences driving the quote; checked when built."""

    availability_target_bp: int
    video_quality: str  # a key of VIDEO_MULTIPLIER_BP
    max_period_seconds: int
    monetization_kind: ContractKind = ContractKind.DYNAMIC_PRICE

    def __post_init__(self) -> None:
        if not 0 < self.availability_target_bp <= BP_SCALE:
            raise InvalidPreferences(
                f"availability_target_bp {self.availability_target_bp} out of (0, 10000]"
            )
        if self.max_period_seconds <= 0:
            raise InvalidPreferences(
                f"max_period_seconds must be > 0, got {self.max_period_seconds}"
            )
        if self.video_quality not in VIDEO_MULTIPLIER_BP:
            raise InvalidPreferences(f"video_quality {echo(self.video_quality)} is not SD or HD")


@dataclass(frozen=True)
class RateCard:
    """Deterministic pricing configuration (multipliers in basis points)."""

    base_rate_wei_per_second: int = 10**14
    high_availability_threshold_bp: int = 9_950
    high_availability_multiplier_bp: int = 12_000
    standby_rate_wei_per_second: int = 10**12
    quote_ttl_blocks: int = 40

    def availability_multiplier_bp(self, target_bp: int) -> int:
        if target_bp > self.high_availability_threshold_bp:
            return self.high_availability_multiplier_bp
        return IDENTITY_MULTIPLIER_BP


@dataclass(frozen=True)
class Quote:
    """An issued, immutable price offer; the contract it prices keeps its
    expiry block, from the height of the request."""

    price: int
    per_minute_price: int = 0  # quota kind only
    standby: Optional[FlexibleTerms] = None  # flexible-period kind only: the terms priced


def quote_price(
    prefs: QosPreferences,
    rate_card: RateCard,
    *,
    constraint_multiplier_bp: int = IDENTITY_MULTIPLIER_BP,
    flexible: Optional[FlexibleTerms] = None,
) -> Quote:
    """Deterministic quote: base rate x period x multipliers, floored once.

    The quote does not depend on the chain: ``rate_card.quote_ttl_blocks``
    counts from the height of the request, which the contract records."""
    quality_bp = VIDEO_MULTIPLIER_BP[prefs.video_quality]
    availability_bp = rate_card.availability_multiplier_bp(prefs.availability_target_bp)
    scale = BP_SCALE**3

    def scaled(base: int, seconds: int) -> int:
        return (
            base * seconds * quality_bp * availability_bp * constraint_multiplier_bp
        ) // scale

    per_minute = 0
    standby = None
    if prefs.monetization_kind is ContractKind.TIME_LIMITED_QUOTA:
        per_minute = scaled(rate_card.base_rate_wei_per_second, 60)
        price = per_minute * -(-prefs.max_period_seconds // 60)
    elif prefs.monetization_kind is ContractKind.FLEXIBLE_PERIOD:
        standby = flexible or FlexibleTerms(
            standby_rate=rate_card.standby_rate_wei_per_second,
            standby_window_seconds=prefs.max_period_seconds,
        )
        price = standby.min_charge + scaled(
            rate_card.base_rate_wei_per_second, prefs.max_period_seconds
        )
    else:
        price = scaled(rate_card.base_rate_wei_per_second, prefs.max_period_seconds)
    if price <= 0:
        raise InvalidPreferences("computed price must be positive; check the rate card")
    return Quote(price=price, per_minute_price=per_minute, standby=standby)


# ---------------------------------------------------------------------------
# payment-method fee comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeeMethodSpec:
    """Published properties of one payment method."""

    name: str
    fee_bp_range: Optional[tuple[int, int]]  # None: gas-priced, not proportional
    merchant_min_bp: int
    merchant_fixed_usd_cents: int
    lockin: str  # "limited" | "flexible"


# First-half-2018 published rates; the Ethereum row is gas-priced.
FEE_METHODS = (
    FeeMethodSpec("Visa", (143, 240), 125, 0, "limited"),
    FeeMethodSpec("Mastercard", (155, 260), 125, 5, "limited"),
    FeeMethodSpec("PayPal", (290, 440), 150, 0, "limited"),
    FeeMethodSpec("Ethereum", None, 0, 0, "flexible"),
)


def ethereum_fee_usd_cents(gas_price_gwei: int, gas_units: int, eth_usd_cents: int) -> int:
    """Flat gas fee in USD cents, floored; independent of the payment amount."""
    fee_wei = gas_price_gwei * WEI_PER_GWEI * gas_units
    return fee_wei * eth_usd_cents // WEI_PER_ETH


def compare_fee_methods(
    amount_usd_cents: int,
    eth_usd_cents: int,
    gas_price_gwei: int,
    gas_units: int,
    enforce_gas_bounds: bool = True,
) -> list[dict]:
    """Fee table rows for every method at the given payment amount."""
    require_amount(amount_usd_cents, "amount_usd_cents")
    if eth_usd_cents <= 0:
        raise ValueError("ETH/USD rate must be positive")
    if enforce_gas_bounds:
        lo, hi = GAS_PRICE_BOUNDS_GWEI
        if not lo <= gas_price_gwei <= hi:
            raise GasPriceOutOfRange(
                f"gas price {gas_price_gwei} GWEI outside [{lo}, {hi}]"
            )
    require_amount(gas_price_gwei, "gas_price_gwei")
    require_amount(gas_units, "gas_units")
    rows = []
    for method in FEE_METHODS:
        if method.fee_bp_range is not None:
            lo_bp, hi_bp = method.fee_bp_range
            fee_min = amount_usd_cents * lo_bp // BP_SCALE
            fee_max = amount_usd_cents * hi_bp // BP_SCALE
            proportional = True
        else:
            fee_min = fee_max = ethereum_fee_usd_cents(
                gas_price_gwei, gas_units, eth_usd_cents
            )
            proportional = False
        rows.append(
            {
                "method": method.name,
                "fee_usd_cents_min": fee_min,
                "fee_usd_cents_max": fee_max,
                "proportional": proportional,
                "merchant_min_bp": method.merchant_min_bp,
                "merchant_fixed_usd_cents": method.merchant_fixed_usd_cents,
                "lockin": method.lockin,
            }
        )
    return rows
