"""Monetary units.

All settlement arithmetic runs on exact integers denominated in wei.
Python integers are unbounded, so no overflow can occur silently; the
only illegal amount is a negative one.
"""

from .errors import echo

WEI_PER_GWEI = 10**9
WEI_PER_ETH = 10**18


def gwei(n: int) -> int:
    """Convert a GWEI count to wei."""
    return n * WEI_PER_GWEI


def eth(n: int) -> int:
    """Convert an ETH count to wei."""
    return n * WEI_PER_ETH


def require_amount(value: int, what: str = "amount") -> int:
    """Validate that ``value`` is a non-negative integer number of wei."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int (wei), got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    return value


def parse_wei(text: str, what: str = "amount") -> int:
    """Parse a wei amount written as ASCII decimal digits (scripts carry amounts as strings).

    ``int`` alone would also take spaces, a plus sign, underscores and other
    scripts' digits.
    """
    negative = type(text) is str and text[:1] == "-"
    digits = text[1:] if negative else text
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(digits)
    except (AttributeError, ValueError):  # not a string, not digits, or past the digit limit
        raise ValueError(f"{what} must be a decimal integer string, got {echo(text)}")
    if negative:
        raise ValueError(f"{what} must be non-negative, got {echo(text)}")
    return value


def format_eth(wei: int) -> str:
    """Human-readable ETH rendering of a wei amount, exact."""
    whole, frac = divmod(wei, WEI_PER_ETH)
    if frac == 0:
        return f"{whole} ETH"
    return f"{whole}.{frac:018d}".rstrip("0") + " ETH"
