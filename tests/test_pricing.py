import io
import re
from itertools import islice
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entityforge import pricing
from entityforge.errors import DataError
from entityforge.pricing import (
    PricePoint,
    PriceSeries,
    exponent_series,
    load_price_csv,
    rounding_exponent,
)

from oracles import reference_rounding_exponent

SAMPLE_PRICES = Path(__file__).resolve().parent.parent / "data" / "sample_prices.csv"


def _series(*pairs):
    return PriceSeries([PricePoint(b, Decimal(p)) for b, p in pairs])


class TestSatoshiPrice:
    def test_ten_thousand_dollar_btc(self):
        series = _series((100, "10000"))
        assert series.satoshi_price(100) == Decimal("0.0001")

    def test_fifty_thousand_dollar_btc(self):
        series = _series((100, "50000"))
        assert series.satoshi_price(150) == Decimal("0.0005")

    def test_before_first_entry_has_no_price(self):
        series = _series((100, "10000"))
        assert series.satoshi_price(99) is None

    def test_step_lookup_at_or_before(self):
        series = _series((100, "10"), (200, "20"))
        assert series.usd_per_btc(150) == 10
        assert series.usd_per_btc(200) == 20
        assert series.usd_per_btc(5000) == 20


class TestSeriesValidation:
    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            PriceSeries([])

    def test_non_increasing_blocks_rejected(self):
        with pytest.raises(DataError):
            _series((100, "10"), (100, "20"))

    def test_non_positive_price_rejected(self):
        with pytest.raises(DataError):
            _series((100, "0"))


class TestRoundingExponent:
    def test_exact_boundary_at_one_dollar(self):
        # 10^4 * 1e-4 = 1 <= 1 < 10
        assert rounding_exponent(Decimal("0.0001"), Decimal(1)) == 4

    def test_non_boundary(self):
        # x/p = 2000 -> 3
        assert rounding_exponent(Decimal("0.0005"), Decimal(1)) == 3

    def test_early_cheap_satoshi(self):
        assert rounding_exponent(Decimal("1e-7"), Decimal(1)) == 7

    def test_negative_exponent_when_satoshi_exceeds_x(self):
        assert rounding_exponent(Decimal("3"), Decimal(1)) == -1

    def test_exact_powers_of_ten_never_off_by_one(self):
        for k in range(-6, 19):
            p = Decimal(1).scaleb(-k)  # x/p = 10^k exactly
            assert rounding_exponent(p, Decimal(1)) == k

    def test_defining_inequality_holds(self):
        rng = Random(21)
        for _ in range(2000):
            p = Decimal(rng.randrange(1, 10**9)).scaleb(rng.randrange(-12, 1))
            x = Decimal(rng.randrange(1, 10**6)).scaleb(rng.randrange(-4, 3))
            i = rounding_exponent(p, x)
            q = Fraction(x) / Fraction(p)
            assert Fraction(10) ** i <= q < Fraction(10) ** (i + 1)

    def test_price_decade_shift_drops_exponent_by_one(self):
        rng = Random(22)
        for _ in range(200):
            p = Decimal(rng.randrange(1, 10**6)).scaleb(-8)
            x = Decimal(rng.randrange(1, 100))
            assert rounding_exponent(p * 10, x) == rounding_exponent(p, x) - 1

    @settings(max_examples=500, deadline=None)
    @given(
        p=st.tuples(st.integers(1, 10**30), st.integers(-300, 300)),
        x=st.tuples(st.integers(1, 10**30), st.integers(-300, 300)),
    )
    def test_matches_rational_reference(self, p, x):
        p, x = (Decimal(f"{m}e{e}") for m, e in (p, x))
        assert rounding_exponent(p, x) == reference_rounding_exponent(p, x)

    def test_non_positive_inputs_rejected(self):
        with pytest.raises(DataError):
            rounding_exponent(Decimal(0), Decimal(1))
        with pytest.raises(DataError):
            rounding_exponent(Decimal(1), Decimal(0))


class TestExponentSeries:
    def test_constant_price_gives_constant_exponent(self):
        series = _series((0, "10000"))
        rows = exponent_series(series, Decimal(1), [0, 10, 20])
        assert list(rows) == [(0, 4), (10, 4), (20, 4)]

    def test_price_step_decade_drops_by_one(self):
        series = _series((0, "1000"), (10, "10000"))
        rows = dict(exponent_series(series, Decimal(1), [5, 15]))
        assert rows[5] - rows[15] == 1

    def test_no_price_blocks_omitted(self):
        series = _series((100, "10000"))
        rows = exponent_series(series, Decimal(1), [50, 150])
        assert list(rows) == [(150, 4)]

    def test_x_shift_moves_series_up_by_one(self):
        series = _series((0, "10000"), (10, "25000"))
        one = exponent_series(series, Decimal(1), [0, 10])
        ten = exponent_series(series, Decimal(10), [0, 10])
        assert [(b, i + 1) for b, i in one] == list(ten)

    def test_lazy_over_a_huge_range(self):
        series = _series((0, "10000"))
        rows = exponent_series(series, Decimal(1), range(10**12))
        assert list(islice(rows, 3)) == [(0, 4), (1, 4), (2, 4)]

    def test_one_exponent_per_price_point(self, monkeypatch):
        calls = []

        def counting(price, x):
            calls.append(price)
            return rounding_exponent(price, x)

        monkeypatch.setattr(pricing, "rounding_exponent", counting)
        series = _series((0, "1000"), (10, "10000"), (20, "5000"))
        rows = list(exponent_series(series, Decimal(1), range(-5, 100)))
        assert rows == [(b, 5 if b < 10 else 4) for b in range(100)]
        assert len(calls) == 3


class TestLoaders:
    def test_load_csv(self):
        text = "block_index,usd_per_btc\n100,10000\n200,20000.5\n"
        series = load_price_csv(io.StringIO(text))
        assert series.usd_per_btc(150) == Decimal("10000")
        assert series.usd_per_btc(200) == Decimal("20000.5")

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            load_price_csv(io.StringIO("block,usd\n1,2\n"))

    def test_bad_price_value_rejected(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("block_index,usd_per_btc\n1,abc\n")
        with open(path, newline="", encoding="utf-8") as fh:
            with pytest.raises(DataError, match=f"^price file {re.escape(str(path))} line 2: bad price 'abc'$"):
                load_price_csv(fh)


class TestSampleData:
    def test_sample_file_loads(self):
        with open(SAMPLE_PRICES, newline="", encoding="utf-8") as fh:
            series = load_price_csv(fh)
        assert series.usd_per_btc(159999) is None
        assert series.usd_per_btc(160000) == Decimal("5.27")

    def test_staircase_start_and_end(self):
        with open(SAMPLE_PRICES, newline="", encoding="utf-8") as fh:
            series = load_price_csv(fh)
        rows = dict(exponent_series(series, Decimal(1), [160000, 700000]))
        assert rows[160000] == 7
        assert rows[700000] == 3

    def test_late_blocks_oscillate_between_three_and_four(self):
        with open(SAMPLE_PRICES, newline="", encoding="utf-8") as fh:
            series = load_price_csv(fh)
        blocks = list(range(600000, 700001, 1000))
        rows = list(exponent_series(series, Decimal(1), blocks))
        assert len(rows) == len(blocks)
        assert set(i for _, i in rows) == {3, 4}
        # settles at 3 from 641000 on
        assert all(i == 3 for b, i in rows if b >= 641000)
