"""The atomic operations of Section IV.

Each operation validates itself against an instance and then patches the
instance in place (:meth:`AtomicOperation.apply_to_instance`); plan repair
is the job of the algorithms in this package.  Operations are immutable
value objects so update streams can be logged and replayed.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, fields

import numpy as np

from repro.core.model import Event, Instance
from repro.geo.point import Point
from repro.timeline.interval import Interval


class AtomicOperation(abc.ABC):
    """One change to a user or event attribute."""

    @abc.abstractmethod
    def apply_to_instance(self, instance: Instance) -> Instance:
        """Patch ``instance`` in place with this change and return it.

        Every built cache is patched too, and each patch's inverse goes
        to the instance's active undo journal (see
        :meth:`repro.core.iep.engine.IEPEngine.apply_in_place`).
        """

    def validate(self, instance: Instance) -> None:
        """Raise ``ValueError`` if the operation is ill-formed for
        ``instance``; nothing may be patched before this passes.

        Every field is checked by its role: ids must be ``int`` (not
        ``bool``) and in range, bounds non-negative ``int``, every number
        finite, utilities in ``[0, 1]``.  Subclasses add the checks that
        relate the operation to the instance's current state.
        """
        for item in fields(self):  # type: ignore[arg-type]
            _check_field(item.name, getattr(self, item.name), instance)


def _is_int(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_finite(name: str, *values: object) -> None:
    for value in values:
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ) or not math.isfinite(value):
            raise ValueError(f"{name} must be finite numbers, got {value!r}")


def _check_field(name: str, value: object, instance: Instance) -> None:
    if name in ("event", "user"):
        count = instance.n_events if name == "event" else instance.n_users
        if not _is_int(value) or not 0 <= value < count:  # type: ignore[operator]
            raise ValueError(f"{name} id {value!r} is not an int in [0, {count})")
    elif name in ("new_upper", "new_lower", "lower", "upper"):
        if not _is_int(value) or value < 0:  # type: ignore[operator]
            raise ValueError(f"{name} {value!r} is not a non-negative int")
    elif isinstance(value, Point):
        _check_finite(name, value.x, value.y)
    elif isinstance(value, Interval):
        _check_finite(name, value.start, value.end)
    else:  # new_value, utilities, new_budget, fee
        values = value if name == "utilities" else (value,)
        _check_finite(name, *values)  # type: ignore[misc]
        if name in ("new_value", "utilities") and not all(
            0.0 <= v <= 1.0 for v in values  # type: ignore[union-attr]
        ):
            raise ValueError("utility scores lie in [0, 1]")


@dataclass(frozen=True)
class EtaDecrease(AtomicOperation):
    """Event ``event``'s participation upper bound drops to ``new_upper``."""

    event: int
    new_upper: int

    def validate(self, instance: Instance) -> None:
        super().validate(instance)
        spec = instance.events[self.event]
        if self.new_upper >= spec.upper:
            raise ValueError("EtaDecrease must lower the upper bound")
        if self.new_upper < spec.lower:
            raise ValueError("upper bound cannot drop below the lower bound")

    def apply_to_instance(self, instance: Instance) -> Instance:
        instance.set_event(self.event, upper=self.new_upper)
        return instance


@dataclass(frozen=True)
class EtaIncrease(AtomicOperation):
    """Event ``event``'s participation upper bound rises to ``new_upper``."""

    event: int
    new_upper: int

    def validate(self, instance: Instance) -> None:
        super().validate(instance)
        if self.new_upper <= instance.events[self.event].upper:
            raise ValueError("EtaIncrease must raise the upper bound")

    def apply_to_instance(self, instance: Instance) -> Instance:
        instance.set_event(self.event, upper=self.new_upper)
        return instance


@dataclass(frozen=True)
class XiIncrease(AtomicOperation):
    """Event ``event``'s participation lower bound rises to ``new_lower``."""

    event: int
    new_lower: int

    def validate(self, instance: Instance) -> None:
        super().validate(instance)
        spec = instance.events[self.event]
        if self.new_lower <= spec.lower:
            raise ValueError("XiIncrease must raise the lower bound")
        if self.new_lower > spec.upper:
            raise ValueError("lower bound cannot exceed the upper bound")

    def apply_to_instance(self, instance: Instance) -> Instance:
        instance.set_event(self.event, lower=self.new_lower)
        return instance


@dataclass(frozen=True)
class XiDecrease(AtomicOperation):
    """Event ``event``'s participation lower bound drops to ``new_lower``."""

    event: int
    new_lower: int

    def validate(self, instance: Instance) -> None:
        super().validate(instance)
        if self.new_lower >= instance.events[self.event].lower:
            raise ValueError("XiDecrease must lower the lower bound")

    def apply_to_instance(self, instance: Instance) -> Instance:
        instance.set_event(self.event, lower=self.new_lower)
        return instance


@dataclass(frozen=True)
class TimeChange(AtomicOperation):
    """Event ``event`` moves to ``new_interval``."""

    event: int
    new_interval: Interval

    def apply_to_instance(self, instance: Instance) -> Instance:
        instance.set_event(self.event, interval=self.new_interval)
        return instance


@dataclass(frozen=True)
class LocationChange(AtomicOperation):
    """Event ``event`` moves to venue ``new_location``."""

    event: int
    new_location: Point

    def apply_to_instance(self, instance: Instance) -> Instance:
        instance.set_event(self.event, location=self.new_location)
        return instance


@dataclass(frozen=True)
class NewEvent(AtomicOperation):
    """A new event is posted, with one utility score per user.

    ``utilities`` is stored as a tuple to keep the operation hashable.
    """

    location: Point
    lower: int
    upper: int
    interval: Interval
    utilities: tuple[float, ...]
    fee: float = 0.0

    def validate(self, instance: Instance) -> None:
        super().validate(instance)
        if self.upper < self.lower:
            raise ValueError("upper bound below the lower bound")
        if len(self.utilities) != instance.n_users:
            raise ValueError("one utility score per user required")
        if self.fee < 0:
            raise ValueError("admission fees are non-negative")

    def apply_to_instance(self, instance: Instance) -> Instance:
        event = Event(
            id=instance.n_events,
            location=self.location,
            lower=self.lower,
            upper=self.upper,
            interval=self.interval,
        )
        instance.append_event(
            event, np.asarray(self.utilities, dtype=float), fee=self.fee
        )
        return instance


@dataclass(frozen=True)
class UtilityChange(AtomicOperation):
    """User ``user``'s utility for ``event`` becomes ``new_value``."""

    user: int
    event: int
    new_value: float

    def apply_to_instance(self, instance: Instance) -> Instance:
        instance.set_utility(self.user, self.event, self.new_value)
        return instance


@dataclass(frozen=True)
class BudgetChange(AtomicOperation):
    """User ``user``'s travel budget becomes ``new_budget``."""

    user: int
    new_budget: float

    def validate(self, instance: Instance) -> None:
        super().validate(instance)
        if self.new_budget < 0:
            raise ValueError("budgets are non-negative")

    def apply_to_instance(self, instance: Instance) -> Instance:
        instance.set_budget(self.user, self.new_budget)
        return instance
