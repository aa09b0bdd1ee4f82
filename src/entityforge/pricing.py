"""Per-block satoshi prices and the round-value exponent.

The round-output heuristic needs, per block, the largest integer i such that
10^i * p <= x, where p is the dollar price of one satoshi and x a small
dollar amount. Floating log10 misclassifies the exact power-of-ten boundary
cases that matter most here, so the exponent is read exactly off the
decimals' digits and exponents, with no context arithmetic: a price or an
amount of any magnitude gives its exponent without rounding or overflow.
"""

from __future__ import annotations

import bisect
from decimal import Decimal
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import DataError, csv_rows, parse_decimal, parse_int


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
        self._blocks = [p.block_index for p in self.points]
        for prev, point in zip([None, *self._blocks], self.points):
            _check_point(prev, point, "")

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
        digits = btc.as_tuple()
        return Decimal(digits._replace(exponent=digits.exponent - 8))  # exact, unlike scaleb


def _check_point(prev: int | None, point: PricePoint, at: str) -> None:
    """A series point must follow block `prev` and carry a positive price."""
    if prev is not None and point.block_index <= prev:
        raise DataError(
            f"{at}price series block indices must strictly increase "
            f"(saw {point.block_index} after {prev})"
        )
    if point.usd_per_btc <= 0:
        raise DataError(f"{at}non-positive price at block {point.block_index}")


def load_price_csv(source: IO) -> PriceSeries:
    """Read the `block_index,usd_per_btc` price file; errors name the handle's file and line."""
    points = []
    what = f"price file {getattr(source, 'name', '<stream>')}"
    for where, (block, price) in csv_rows(source, ["block_index", "usd_per_btc"], what):
        block_index, value = parse_int(block, where), parse_decimal(price)
        if value is None:
            raise DataError(f"{where}: bad price {price!r}")
        point = PricePoint(block_index, value)
        _check_point(points[-1].block_index if points else None, point, f"{where}: ")
        points.append(point)
    if not points:
        raise DataError(f"{what}: no price rows")
    return PriceSeries(points)


def rounding_exponent(satoshi_price: Decimal, x: Decimal) -> int:
    """Largest integer i with 10^i * satoshi_price <= x; may be negative.

    Exact: with x = d1.d2... * 10^a and p = e1.e2... * 10^b (a and b are the
    `adjusted()` exponents), i is a - b, less one when x's digits sort below
    p's at equal length. So x/p equal to a power of ten classifies as that
    power, never off by one, and no integer grows past the inputs' digits.
    """
    if satoshi_price <= 0 or x <= 0:
        raise DataError("rounding exponent requires positive price and amount")
    x_digits, p_digits = x.as_tuple().digits, satoshi_price.as_tuple().digits
    width = max(len(x_digits), len(p_digits))
    below = x_digits + (0,) * (width - len(x_digits)) < p_digits + (0,) * (width - len(p_digits))
    return x.adjusted() - satoshi_price.adjusted() - below


def exponent_series(
    series: PriceSeries, x: Decimal, blocks: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """Per-block rounding exponent, yielded lazily; blocks with no price data are omitted.

    The exponent is a step function of the block, so it is computed up front
    once per price point, and each block only looks up its point.
    """
    starts = series._blocks
    exponents = [rounding_exponent(series.satoshi_price(b), x) for b in starts]
    positions = ((block, bisect.bisect_right(starts, block) - 1) for block in blocks)
    return ((block, exponents[pos]) for block, pos in positions if pos >= 0)
