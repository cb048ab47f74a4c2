"""Structured experiment results.

An :class:`ExperimentResult` holds everything a figure reproduction
produces: the x-axis, the named y-series the paper plots, a dictionary
of *shape checks* (the paper's qualitative claims about the figure —
who wins, where the knee falls), and free-form metadata (parameters,
repetition counts).  The benchmark harness prints
``result.table()`` and asserts ``result.all_checks_pass``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class ExperimentResult:
    """Outcome of one figure reproduction."""

    experiment: str
    title: str
    x_label: str
    x: np.ndarray
    series: "Dict[str, np.ndarray]"
    meta: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        for name, values in list(self.series.items()):
            values = np.asarray(values, dtype=float)
            if values.shape != self.x.shape:
                raise ValueError(
                    f"series {name!r} has shape {values.shape}, "
                    f"x has {self.x.shape}")
            self.series[name] = values

    # ------------------------------------------------------------------

    def add_check(self, name: str, passed: bool) -> None:
        """Record a qualitative shape check."""
        self.checks[name] = bool(passed)

    @property
    def all_checks_pass(self) -> bool:
        """Whether every recorded shape check holds."""
        return all(self.checks.values())

    @property
    def failed_checks(self) -> List[str]:
        """Names of failing checks."""
        return [name for name, ok in self.checks.items() if not ok]

    # ------------------------------------------------------------------

    def table(self) -> str:
        """Render the series as an aligned text table (bench output)."""
        names = list(self.series)
        lines = [f"== {self.experiment}: {self.title} =="]
        if self.meta:
            rendered = ", ".join(f"{k}={v}" for k, v in self.meta.items())
            lines.append(f"   [{rendered}]")
        lines.append("  ".join(f"{label[:14]:>14}"
                               for label in [self.x_label, *names]))
        for i in range(len(self.x)):
            lines.append("  ".join(
                f"{value:>14.5g}"
                for value in [self.x[i], *(self.series[n][i] for n in names)]))
        if self.checks:
            lines.append("  checks: " + ", ".join(
                f"{name}={'PASS' if ok else 'FAIL'}"
                for name, ok in self.checks.items()))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON round-trip (the runtime result cache stores these payloads)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable payload; inverse of :meth:`from_dict`.

        The round trip is lossless for :meth:`table` output: arrays go
        through ``tolist()`` (exact for float64) and meta values are
        reduced to plain Python scalars that render identically.
        """
        return {
            "experiment": self.experiment,
            "title": self.title,
            "x_label": self.x_label,
            "x": self.x.tolist(),
            "series": {name: values.tolist()
                       for name, values in self.series.items()},
            "meta": {key: jsonable(value)
                     for key, value in self.meta.items()},
            "checks": dict(self.checks),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from a :meth:`to_dict` payload."""
        result = cls(
            experiment=str(payload["experiment"]),
            title=str(payload["title"]),
            x_label=str(payload["x_label"]),
            x=np.asarray(payload["x"], dtype=float),
            series={str(name): np.asarray(values, dtype=float)
                    for name, values in dict(payload["series"]).items()},
            meta=dict(payload.get("meta", {})),
        )
        for name, ok in dict(payload.get("checks", {})).items():
            result.add_check(str(name), bool(ok))
        return result


def jsonable(value: object) -> object:
    """Recursively reduce a value to JSON-serialisable Python types.

    numpy scalars become their Python equivalents, arrays and tuples
    become lists, and containers are normalised element-wise — so any
    meta/kwargs structure a runner produces can be stored as JSON.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return value


def monotone_nondecreasing(values: np.ndarray, slack: float = 0.0) -> bool:
    """Shape-check helper: the series never drops by more than ``slack``."""
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(values) >= -slack))
