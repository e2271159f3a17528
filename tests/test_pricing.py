"""Quote computation and the payment-method fee table."""

import random

import pytest

from escrowsim.contracts import ContractKind, FlexibleTerms
from escrowsim.errors import GasPriceOutOfRange, InvalidPreferences
from escrowsim.pricing import (
    GAS_PRICE_BOUNDS_GWEI,
    QosPreferences,
    RateCard,
    compare_fee_methods,
    ethereum_fee_usd_cents,
    quote_price,
)

CARD = RateCard()


def prefs(avail=9_000, quality="SD", period=3_600, kind=ContractKind.DYNAMIC_PRICE):
    return QosPreferences(
        availability_target_bp=avail,
        video_quality=quality,
        max_period_seconds=period,
        monetization_kind=kind,
    )


# ---- quotes --------------------------------------------------------------------

def test_quote_sd_hour_frozen():
    # 10^14 wei/s * 3600 s, all multipliers identity
    assert quote_price(prefs(), CARD).price == 360_000_000_000_000_000


def test_quote_hd_hour_frozen():
    assert quote_price(prefs(quality="HD"), CARD).price == 540_000_000_000_000_000


def test_quote_hd_high_availability_frozen():
    # 9980 bp clears the 9950 bp tier: 1.5 * 1.2 on the base
    q = quote_price(prefs(avail=9_980, quality="HD"), CARD)
    assert q.price == 648_000_000_000_000_000


def test_high_availability_threshold_is_strict():
    at = quote_price(prefs(avail=9_950), CARD).price
    above = quote_price(prefs(avail=9_951), CARD).price
    assert at == 360_000_000_000_000_000
    assert above == 432_000_000_000_000_000


def test_quote_scales_linearly_with_period():
    one = quote_price(prefs(period=60), CARD).price
    ten = quote_price(prefs(period=600), CARD).price
    assert ten == 10 * one


def test_quota_quote_prices_whole_minutes():
    q = quote_price(prefs(period=3_600, kind=ContractKind.TIME_LIMITED_QUOTA), CARD)
    assert q.per_minute_price == 6_000_000_000_000_000  # 10^14 * 60
    assert q.price == 60 * q.per_minute_price
    ragged = quote_price(prefs(period=3_601, kind=ContractKind.TIME_LIMITED_QUOTA), CARD)
    assert ragged.price == 61 * q.per_minute_price  # partial minute rounds up


def test_flexible_quote_adds_standby_minimum():
    flexible = prefs(period=3_600, kind=ContractKind.FLEXIBLE_PERIOD)
    q = quote_price(flexible, CARD)
    # 10^12 wei/s * 3600 s on top of the SD-hour usage price
    assert q.price == 3_600_000_000_000_000 + 360_000_000_000_000_000
    assert q.standby == FlexibleTerms(standby_rate=10**12, standby_window_seconds=3_600)
    terms = FlexibleTerms(standby_rate=10**13, standby_window_seconds=600)
    custom = quote_price(flexible, CARD, flexible=terms)
    assert custom.price == terms.min_charge + 360_000_000_000_000_000
    assert custom.standby is terms  # the quote returns the terms it priced
    assert quote_price(prefs(), CARD).standby is None  # other kinds have none


def test_standby_min_charge_guards_window():
    assert FlexibleTerms(standby_rate=5, standby_window_seconds=3).min_charge == 15
    assert FlexibleTerms(standby_rate=5, standby_window_seconds=1).min_charge == 5
    with pytest.raises(ValueError):
        FlexibleTerms(standby_rate=5, standby_window_seconds=0)


def test_invalid_preferences_rejected():
    with pytest.raises(InvalidPreferences):
        quote_price(prefs(avail=0), CARD)
    with pytest.raises(InvalidPreferences):
        quote_price(prefs(avail=10_001), CARD)
    with pytest.raises(InvalidPreferences):
        quote_price(prefs(period=0), CARD)
    with pytest.raises(InvalidPreferences):
        quote_price(prefs(quality="4K"), CARD)


def test_zero_base_rate_cannot_produce_a_quote():
    with pytest.raises(InvalidPreferences):
        quote_price(prefs(), RateCard(base_rate_wei_per_second=0))


def test_constraint_multiplier_floors_once():
    q = quote_price(prefs(), CARD, constraint_multiplier_bp=12_500)
    assert q.price == 450_000_000_000_000_000
    # single floor at the end, not per factor
    odd = quote_price(prefs(period=7), CARD, constraint_multiplier_bp=3_333)
    assert odd.price == 10**14 * 7 * 3_333 // 10_000


# ---- fee table -----------------------------------------------------------------

def by_method(rows):
    return {row["method"]: row for row in rows}


def test_published_fee_ranges_at_100_usd():
    rows = by_method(compare_fee_methods(10_000, 50_000, 20, 21_000))
    assert rows["Visa"]["fee_usd_cents_min"] == 143
    assert rows["Visa"]["fee_usd_cents_max"] == 240
    assert rows["Mastercard"]["fee_usd_cents_min"] == 155
    assert rows["Mastercard"]["fee_usd_cents_max"] == 260
    assert rows["PayPal"]["fee_usd_cents_min"] == 290
    assert rows["PayPal"]["fee_usd_cents_max"] == 440
    assert rows["Mastercard"]["merchant_fixed_usd_cents"] == 5
    assert rows["Visa"]["merchant_min_bp"] == 125
    assert rows["PayPal"]["lockin"] == "limited"
    assert rows["Ethereum"]["lockin"] == "flexible"


def test_ethereum_fee_frozen_21_cents():
    # 20 GWEI * 21000 gas = 4.2e14 wei; at $500/ETH that is 21 cents
    assert ethereum_fee_usd_cents(20, 21_000, 50_000) == 21


def test_ethereum_fee_is_flat_across_amounts():
    small = by_method(compare_fee_methods(100, 50_000, 20, 21_000))["Ethereum"]
    large = by_method(compare_fee_methods(1_000_000, 50_000, 20, 21_000))["Ethereum"]
    assert small["fee_usd_cents_min"] == large["fee_usd_cents_min"] == 21
    assert not small["proportional"]


def test_proportional_fees_vanish_at_zero_amount():
    rows = by_method(compare_fee_methods(0, 50_000, 20, 21_000))
    assert rows["Visa"]["fee_usd_cents_max"] == 0
    assert rows["Ethereum"]["fee_usd_cents_min"] == 21


def test_gas_price_bounds_enforced():
    with pytest.raises(GasPriceOutOfRange):
        compare_fee_methods(10_000, 50_000, 50, 21_000)
    with pytest.raises(GasPriceOutOfRange):
        compare_fee_methods(10_000, 50_000, 0, 21_000)
    rows = compare_fee_methods(10_000, 50_000, 50, 21_000, enforce_gas_bounds=False)
    assert by_method(rows)["Ethereum"]["fee_usd_cents_min"] == 52  # 52.5 floored


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        compare_fee_methods(10_000, 0, 20, 21_000)
    with pytest.raises(ValueError):
        compare_fee_methods(-1, 50_000, 20, 21_000)
    with pytest.raises(ValueError):
        compare_fee_methods(10_000, 50_000, 20, -5)
    with pytest.raises(ValueError):
        compare_fee_methods(10_000, 50_000, -5, 21_000, enforce_gas_bounds=False)


def test_ethereum_undercuts_paypal_floor_for_large_payments():
    # Worst flat fee over the allowed envelope is 40 GWEI * 100k gas * $2000/ETH
    # = 800 cents, so any amount from $277 up beats PayPal's 2.90% floor.
    lo, hi = GAS_PRICE_BOUNDS_GWEI
    rng = random.Random(4)
    for _ in range(3000):
        amount = rng.randint(27_700, 10_000_000)
        gas_price = rng.randint(lo, hi)
        gas_units = rng.randint(21_000, 100_000)
        eth_usd = rng.randint(1, 200_000)
        rows = by_method(compare_fee_methods(amount, eth_usd, gas_price, gas_units))
        assert rows["Ethereum"]["fee_usd_cents_max"] < rows["PayPal"]["fee_usd_cents_min"]
    # the exact corner
    corner = by_method(compare_fee_methods(27_700, 200_000, hi, 100_000))
    assert corner["Ethereum"]["fee_usd_cents_max"] == 800
    assert corner["PayPal"]["fee_usd_cents_min"] == 803


def test_ethereum_cheaper_than_cards_at_everyday_settings():
    rows = by_method(compare_fee_methods(10_000, 50_000, 20, 21_000))
    assert rows["Ethereum"]["fee_usd_cents_max"] < rows["Visa"]["fee_usd_cents_min"]
    assert rows["Ethereum"]["fee_usd_cents_max"] < rows["PayPal"]["fee_usd_cents_min"]
