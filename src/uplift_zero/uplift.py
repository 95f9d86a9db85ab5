"""Uplift accounting for a market.

Uplift is the gap between a unit's best achievable profit at a price and the
profit of its dispatched schedule.  `uplift_report` measures it for every
unit of an instance.  The multipliers that shrink it, and the uplift left
once revenue is amended by them, are in `redundant`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError
from .model import MarketInstance, Schedule, unchecked_cost, validate_schedule
from .pricing import _profit, as_price, max_profits


@dataclass(frozen=True)
class UnitUplift:
    unit_id: str
    dispatch_profit: float
    max_profit: float
    uplift: float


@dataclass(frozen=True)
class UpliftReport:
    entries: tuple[UnitUplift, ...]

    @property
    def total(self) -> float:
        return sum(e.uplift for e in self.entries)

    def entry(self, unit_id: str) -> UnitUplift:
        for e in self.entries:
            if e.unit_id == unit_id:
                return e
        raise ValidationError(f"no uplift entry for unit {unit_id!r}")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["unit_id", "pi_star", "pi_plus", "uplift"])
        for e in self.entries:
            writer.writerow(
                [e.unit_id, repr(e.dispatch_profit), repr(e.max_profit), repr(e.uplift)]
            )
        return buf.getvalue()


def uplift_report(instance: MarketInstance, p, x_star: Schedule) -> UpliftReport:
    """Per-unit dispatched profit, best profit, and uplift at price p.  The
    best profit is solved once per group of identical units
    (`pricing.max_profits`).

    Uplift within opt_tol of zero is clamped to exactly zero.  The schedule
    is validated once, at the instance's tolerance, and then priced as is.
    """
    validate_schedule(instance, x_star)
    p = as_price(p, instance.periods)
    return _uplift_table(instance, p, x_star, max_profits(instance, p))


def _uplift_table(
    instance: MarketInstance, p: tuple[float, ...], x_star: Schedule, maxima: Iterable[float]
) -> UpliftReport:
    """`uplift_report` at a normalized price for a valid schedule, with every
    unit's profit maximum at p given in instance order (as a price search
    returns them in `PriceResult.maxima`)."""
    tol = instance.tolerances
    entries = []
    for unit, best in zip(instance.units, maxima):
        sched = x_star.unit(unit.id)
        dispatched = _profit(p, sched.g, unchecked_cost(unit, sched))
        gap = best - dispatched
        if abs(gap) <= tol.opt_tol:
            gap = 0.0
        entries.append(
            UnitUplift(
                unit_id=unit.id,
                dispatch_profit=dispatched,
                max_profit=best,
                uplift=gap,
            )
        )
    return UpliftReport(entries=tuple(entries))
