"""Per-block satoshi prices and the round-value exponent.

The round-output heuristic needs, per block, the largest integer i such that
10^i * p <= x, where p is the dollar price of one satoshi and x a small
dollar amount. Floating log10 misclassifies the exact power-of-ten boundary
cases that matter most here, so the exponent is computed over exact
rationals built from the decimal price data.
"""

from __future__ import annotations

import bisect
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import IO, Iterable, NamedTuple

from .errors import DataError, csv_rows, parse_int

SATOSHI_PER_BTC = 10**8


class PricePoint(NamedTuple):
    block_index: int
    usd_per_btc: Decimal


class PriceSeries:
    """Step series of BTC/USD prices keyed by block index.

    Lookups return the latest entry at-or-before the queried block; blocks
    before the first entry have no price.
    """

    def __init__(self, points: Iterable[PricePoint]):
        self.points = list(points)
        if not self.points:
            raise DataError("price series is empty")
        prev = None
        for point in self.points:
            if prev is not None and point.block_index <= prev:
                raise DataError(
                    f"price series block indices must strictly increase "
                    f"(saw {point.block_index} after {prev})"
                )
            if point.usd_per_btc <= 0:
                raise DataError(f"non-positive price at block {point.block_index}")
            prev = point.block_index
        self._blocks = [p.block_index for p in self.points]

    def usd_per_btc(self, block_index: int) -> Decimal | None:
        pos = bisect.bisect_right(self._blocks, block_index) - 1
        if pos < 0:
            return None
        return self.points[pos].usd_per_btc

    def satoshi_price(self, block_index: int) -> Decimal | None:
        """Dollars per satoshi at-or-before the block, or None if no data."""
        btc = self.usd_per_btc(block_index)
        if btc is None:
            return None
        return btc.scaleb(-8)


def load_price_csv(source: IO) -> PriceSeries:
    """Read the `block_index,usd_per_btc` price file."""
    points = []
    for where, (block, price) in csv_rows(source, ["block_index", "usd_per_btc"], "price file"):
        block_index = parse_int(block, where)
        try:
            value = Decimal(price)
        except InvalidOperation:
            value = None
        if value is None or not value.is_finite():
            raise DataError(f"{where}: bad price {price!r}")
        points.append(PricePoint(block_index, value))
    return PriceSeries(points)


def rounding_exponent(satoshi_price: Decimal, x: Decimal) -> int:
    """Largest integer i with 10^i * satoshi_price <= x; may be negative.

    Exact: both operands are converted to rationals, so x/p equal to a power
    of ten classifies as that power, never off by one.
    """
    if satoshi_price <= 0 or x <= 0:
        raise DataError("rounding exponent requires positive price and amount")
    q = Fraction(x) / Fraction(satoshi_price)
    # Digit-length difference starts within one of floor(log10); adjust exactly.
    i = len(str(q.numerator)) - len(str(q.denominator))
    ten = Fraction(10)
    while ten**i > q:
        i -= 1
    while ten ** (i + 1) <= q:
        i += 1
    return i


def exponent_series(
    series: PriceSeries, x: Decimal, blocks: Iterable[int]
) -> list[tuple[int, int]]:
    """Per-block rounding exponent; blocks with no price data are omitted."""
    out = []
    for block in blocks:
        p = series.satoshi_price(block)
        if p is None:
            continue
        out.append((block, rounding_exponent(p, x)))
    return out
