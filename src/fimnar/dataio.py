"""Typed dataset container and delimited-text ingestion.

A dataset is a set of completely observed covariate columns, an
outcome column that may be missing (marked ``NA`` or an empty field),
and a response indicator that is 1 exactly when the outcome is
observed.  The indicator may be given explicitly, in which case it
must agree with the outcome's missingness row by row, or inferred.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .basis import CovariateKind

__all__ = ["Dataset", "DataSchema", "IngestError", "ingest", "emit"]

_MISSING_MARKERS = ("", "NA")


class IngestError(ValueError):
    """Malformed input data; the message points at the offending cell."""


@dataclass(frozen=True)
class DataSchema:
    """Column layout: covariate kinds, outcome column, optional indicator."""

    kinds: Mapping[str, CovariateKind]
    y: str = "y"
    delta: Optional[str] = None
    standardize: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in self.standardize:
            kind = self.kinds.get(name)
            if kind is None or not kind.is_continuous:
                raise IngestError(
                    f"only declared-continuous covariates can be standardized, not {name!r}"
                )


@dataclass
class Dataset:
    """Rows of (covariates, optional outcome, response indicator)."""

    columns: dict[str, np.ndarray]
    y: np.ndarray
    delta: np.ndarray
    kinds: dict[str, CovariateKind]
    y_name: str = "y"
    delta_name: Optional[str] = None
    transforms: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        self.delta = np.asarray(self.delta, dtype=int)
        n = self.y.size
        if self.delta.size != n:
            raise IngestError("outcome and indicator lengths differ")
        if not np.all((self.delta == 0) | (self.delta == 1)):
            raise IngestError("response indicator must be 0 or 1")
        observed = ~np.isnan(self.y)
        clash = np.nonzero(observed != (self.delta == 1))[0]
        if clash.size:
            raise IngestError(
                f"row {clash[0] + 1}: response indicator conflicts with outcome missingness"
            )
        for name, col in self.columns.items():
            col = np.asarray(col)
            if col.size != n:
                raise IngestError(f"column {name!r} has wrong length")
            kind = self.kinds.get(name)
            if kind is None:
                raise IngestError(f"column {name!r} has no declared kind")
            if kind.kind == "categorical":
                col = col.astype(str)
                bad = set(np.unique(col)) - set(kind.levels)
                if bad:
                    raise IngestError(
                        f"column {name!r} contains undeclared levels {sorted(bad)}"
                    )
            else:
                col = col.astype(float)
                if np.isnan(col).any():
                    row = int(np.nonzero(np.isnan(col))[0][0]) + 1
                    raise IngestError(
                        f"row {row}: covariate {name!r} is missing; covariates "
                        "must be completely observed"
                    )
                if kind.kind == "binary" and not np.all((col == 0) | (col == 1)):
                    raise IngestError(f"binary covariate {name!r} has values outside {{0,1}}")
            self.columns[name] = col
        if not np.any(self.delta == 1):
            raise IngestError("no respondents in the data")

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def n_respondents(self) -> int:
        return int(np.sum(self.delta == 1))

    @property
    def n_missing(self) -> int:
        return int(np.sum(self.delta == 0))

    @property
    def respondent_mask(self) -> np.ndarray:
        return self.delta == 1

    def subset_columns(self, mask: np.ndarray) -> dict[str, np.ndarray]:
        return {name: col[mask] for name, col in self.columns.items()}

    def respondent_columns(self) -> dict[str, np.ndarray]:
        return self.subset_columns(self.respondent_mask)

    def missing_columns(self) -> dict[str, np.ndarray]:
        return self.subset_columns(~self.respondent_mask)

    @property
    def y_observed(self) -> np.ndarray:
        return self.y[self.respondent_mask]


def _parse_cell(value: str, name: str, kind: CovariateKind, row: int):
    """A covariate cell of file line ``row``; a missing one (``NA``, empty or nan) is an error."""
    value = value.strip()
    if value not in _MISSING_MARKERS and kind.kind == "categorical":
        return value
    try:
        number = math.nan if value in _MISSING_MARKERS else float(value)
    except ValueError:
        raise IngestError(
            f"row {row}, column {name!r}: cannot parse {value!r} as a number"
        ) from None
    if math.isnan(number):
        raise IngestError(
            f"row {row}: covariate {name!r} is missing; covariates "
            "must be completely observed"
        )
    return number


def ingest(path, schema: DataSchema) -> Dataset:
    """Read a comma- or tab-delimited file with a header row.

    The outcome column treats ``NA`` and empty fields as missing.  When
    the schema names an indicator column it is cross-checked against
    outcome missingness; otherwise the indicator is inferred.  Errors name
    the file line of the offending cell, the header being line 1.  Declared
    covariates in ``schema.standardize`` are z-scored and the applied
    (mean, sd) transforms recorded on the dataset.
    """
    text = Path(path).read_text()
    delimiter = "\t" if "\t" in text.splitlines()[0] else ","
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty file") from None
    header = [h.strip() for h in header]
    index = {name: i for i, name in enumerate(header)}
    for name in list(schema.kinds) + [schema.y]:
        if name not in index:
            raise IngestError(f"column {name!r} not found in header {header}")
    if schema.delta is not None and schema.delta not in index:
        raise IngestError(f"indicator column {schema.delta!r} not found")

    raw_cols: dict[str, list] = {name: [] for name in schema.kinds}
    ys: list[float] = []
    deltas: list[int] = []
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise IngestError(f"row {row_number}: expected {len(header)} fields")
        for name, kind in schema.kinds.items():
            raw_cols[name].append(_parse_cell(row[index[name]], name, kind, row_number))
        y_cell = row[index[schema.y]].strip()
        if y_cell in _MISSING_MARKERS:
            ys.append(math.nan)
        else:
            try:
                ys.append(float(y_cell))
            except ValueError:
                raise IngestError(
                    f"row {row_number}, column {schema.y!r}: cannot parse {y_cell!r}"
                ) from None
        if schema.delta is not None:
            cell = row[index[schema.delta]].strip()
            if cell not in ("0", "1"):
                raise IngestError(
                    f"row {row_number}, column {schema.delta!r}: indicator must be 0 or 1"
                )
            if (cell == "1") == math.isnan(ys[-1]):
                raise IngestError(
                    f"row {row_number}: response indicator conflicts with outcome missingness"
                )
            deltas.append(int(cell))
    y = np.asarray(ys, dtype=float)
    if schema.delta is None:
        delta = (~np.isnan(y)).astype(int)
    else:
        delta = np.asarray(deltas, dtype=int)
    columns = {
        name: np.asarray(vals, dtype=(str if schema.kinds[name].kind == "categorical" else float))
        for name, vals in raw_cols.items()
    }
    data = Dataset(
        columns=columns,
        y=y,
        delta=delta,
        kinds=dict(schema.kinds),
        y_name=schema.y,
        delta_name=schema.delta,
    )
    for name in schema.standardize:
        col = data.columns[name]
        mean, sd = float(np.mean(col)), float(np.std(col))
        if sd == 0.0:
            raise IngestError(f"covariate {name!r} is constant; cannot standardize")
        data.columns[name] = (col - mean) / sd
        data.transforms[name] = (mean, sd)
    return data


def emit(data: Dataset, path) -> None:
    """Write a dataset back to comma-delimited text (NA marks missing)."""
    names = list(data.columns)
    header = names + [data.y_name, data.delta_name or "delta"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = []
            for name in names:
                value = data.columns[name][i]
                row.append(str(value) if data.kinds[name].kind == "categorical" else repr(float(value)))
            row.append("NA" if math.isnan(data.y[i]) else repr(float(data.y[i])))
            row.append(str(int(data.delta[i])))
            writer.writerow(row)
