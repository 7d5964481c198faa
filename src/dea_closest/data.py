"""Dataset model, CSV ingestion, and slack priority rankings.

A ``Dataset`` holds its values as two read-only float64 arrays, inputs ``x``
(n, m) and outputs ``y`` (n, s), with one row per DMU in ``names`` order, so
every model builder takes its blocks by slicing.  Construction validates the
whole table at once and names the first offending DMU or measure.

The CSV contract: header ``dmu,in:<name>[,in:<name>...],out:<name>[,out:<name>...]``,
one row per DMU, UTF-8 (a byte-order mark is allowed), plain decimal
numbers.  Input columns come before output columns and there is at least
one of each; no two input or two output columns share a name, although an
input and an output may (their slack labels ``in:a`` and ``out:a`` differ).
Row order is preserved everywhere downstream — it is the canonical
tie-break order.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import ValidationError

# a plain decimal number; float() would also take "1_0" and non-ASCII digits
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable table of n DMUs sharing m inputs and s outputs.

    ``x`` (n, m) holds the inputs and ``y`` (n, s) the outputs, one row per
    DMU in ``names`` order: read-only float64 copies of the values passed in.
    Equality is identity (arrays have no single truth value).
    """

    names: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        x, y = np.array(self.x, dtype=float), np.array(self.y, dtype=float)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

        if not names:
            raise ValidationError("dataset contains no DMUs")
        if not self.input_names or not self.output_names:
            raise ValidationError("dataset needs at least one input and one output measure")
        for kind, labels in (("DMU", names), ("input", self.input_names),
                             ("output", self.output_names)):
            seen: set[str] = set()
            for name in labels:
                if not str(name).strip():
                    raise ValidationError(f"empty {kind} name")
                if name in seen:
                    raise ValidationError(f"duplicate {kind} name {name!r}")
                seen.add(name)
        if x.shape != (self.n, self.m) or y.shape != (self.n, self.s):
            raise ValidationError(f"inconsistent dimensions: inputs {x.shape} and outputs "
                                  f"{y.shape} for {self.n} DMUs, {self.m} inputs and "
                                  f"{self.s} outputs")
        vals = np.hstack([x, y])
        for bad, what in ((~np.isfinite(vals).all(axis=1), "has a non-finite value"),
                          ((vals < 0).any(axis=1), "has a negative value"),
                          (~(x > 0).any(axis=1), "has no positive input")):
            if bad.any():
                raise ValidationError(f"DMU {names[int(np.argmax(bad))]!r} {what}")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.input_names)

    @property
    def s(self) -> int:
        return len(self.output_names)

    def slack_labels(self) -> tuple[str, ...]:
        """The m input slack labels followed by the s output slack labels."""
        return tuple([f"in:{nm}" for nm in self.input_names]
                     + [f"out:{nm}" for nm in self.output_names])


@dataclass(frozen=True)
class PriorityRanking:
    """Order in which the m+s slacks are minimized, highest priority first.

    Slack indices 0..m-1 are the input slacks, m..m+s-1 the output slacks.
    """

    order: tuple[int, ...]
    m: int
    s: int

    def __post_init__(self):
        if sorted(self.order) != list(range(self.m + self.s)):
            raise ValidationError("priority ranking must be a permutation of all slack labels")

    def labels(self, dataset: Dataset) -> tuple[str, ...]:
        all_labels = dataset.slack_labels()
        return tuple(all_labels[i] for i in self.order)


def default_priority(m: int, s: int) -> PriorityRanking:
    """Outputs before inputs, each group in declaration order."""
    if m < 1 or s < 1:
        raise ValidationError("need at least one input and one output")
    return PriorityRanking(tuple(range(m, m + s)) + tuple(range(m)), m, s)


def priority_from_labels(spec: str, dataset: Dataset) -> PriorityRanking:
    """Parse a comma-separated slack-label list (or ``default``) against a dataset."""
    if spec.strip() == "default":
        return default_priority(dataset.m, dataset.s)
    labels = dataset.slack_labels()
    index = {label: i for i, label in enumerate(labels)}
    order: list[int] = []
    for part in spec.split(","):
        label = part.strip()
        if label not in index:
            raise ValidationError(f"unknown slack label {label!r}; expected one of {', '.join(labels)}")
        if index[label] in order:
            raise ValidationError(f"slack label {label!r} listed twice in priority spec")
        order.append(index[label])
    if len(order) != len(labels):
        missing = [l for l in labels if index[l] not in order]
        raise ValidationError(f"priority spec misses slack labels: {', '.join(missing)}")
    return PriorityRanking(tuple(order), dataset.m, dataset.s)


def _parse_header(fields: list[str]) -> tuple[list[str], list[str]]:
    if not fields or fields[0].strip() != "dmu":
        raise ValidationError("header must start with the 'dmu' column", row=1, column=1)
    input_names: list[str] = []
    output_names: list[str] = []
    for col, raw in enumerate(fields[1:], start=2):
        token = raw.strip()
        if token.startswith("in:"):
            if output_names:
                raise ValidationError("input columns must precede output columns",
                                      row=1, column=col)
            group, name = input_names, token[3:]
        elif token.startswith("out:"):
            group, name = output_names, token[4:]
        else:
            raise ValidationError(f"column header {token!r} must start with 'in:' or 'out:'",
                                  row=1, column=col)
        if not name.strip() or name in group:
            problem = "repeats an earlier column" if name.strip() else "names no measure"
            raise ValidationError(f"column header {token!r} {problem}", row=1, column=col)
        group.append(name)
    if not input_names:
        raise ValidationError("no input columns declared", row=1)
    if not output_names:
        raise ValidationError("no output columns declared", row=1)
    return input_names, output_names


def load_dataset(source: str | Path | TextIO) -> Dataset:
    """Read and validate a dataset from a CSV file path (``str`` or ``Path``)
    or an open text stream.

    A file is decoded as UTF-8, with or without a byte-order mark; a byte
    that is not UTF-8 is reported with its row.  A stream's text may start
    with one byte-order mark too.  Every malformed cell is reported with
    its 1-based row/column coordinates; a partially constructed dataset is
    never returned.
    """
    if isinstance(source, (str, Path)):
        raw = Path(source).read_bytes()
        try:
            text = raw.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"byte 0x{raw[exc.start]:02x} is not UTF-8 text",
                                  row=raw.count(b"\n", 0, exc.start) + 1) from None
    else:
        text = source.read().removeprefix("\ufeff")

    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader]
    # csv yields [] for blank lines; drop trailing ones but keep interior gaps as errors
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        raise ValidationError("empty dataset file", row=1)

    input_names, output_names = _parse_header(rows[0])
    m, s = len(input_names), len(output_names)

    table: list[list[float]] = []
    names_seen: dict[str, int] = {}  # name -> row, in row order
    for r, row in enumerate(rows[1:], start=2):
        if not row:
            raise ValidationError("blank line inside the table", row=r)
        if len(row) != 1 + m + s:
            raise ValidationError(f"expected {1 + m + s} cells, found {len(row)}", row=r)
        name = row[0].strip()
        if not name:
            raise ValidationError("empty DMU name", row=r, column=1)
        if name in names_seen:
            raise ValidationError(f"duplicate DMU name {name!r} (first seen on row {names_seen[name]})",
                                  row=r, column=1)
        names_seen[name] = r
        values: list[float] = []
        for c, cell in enumerate(row[1:], start=2):
            text = cell.strip()
            try:
                v = float(text)
            except ValueError:
                v = None
            if v is None or (np.isfinite(v) and not _DECIMAL.fullmatch(text)):
                raise ValidationError(f"cell {text!r} is not a plain decimal number",
                                      row=r, column=c)
            if not np.isfinite(v):
                raise ValidationError(f"non-finite cell {text!r}", row=r, column=c)
            if v < 0:
                raise ValidationError(f"negative value {v}", row=r, column=c)
            values.append(v)
        if not any(v > 0 for v in values[:m]):
            raise ValidationError(f"DMU {name!r} has no positive input", row=r)
        table.append(values)

    if not table:
        raise ValidationError("dataset has a header but no DMU rows", row=2)
    data = np.array(table)
    return Dataset(tuple(names_seen), data[:, :m], data[:, m:],
                   tuple(input_names), tuple(output_names))


def dump_dataset(dataset: Dataset) -> str:
    """CSV text for a dataset; numbers use shortest exact representation, so a
    load/dump round trip preserves every value bit for bit."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["dmu"] + [f"in:{nm}" for nm in dataset.input_names]
                    + [f"out:{nm}" for nm in dataset.output_names])
    for name, row in zip(dataset.names, np.hstack([dataset.x, dataset.y]).tolist()):
        writer.writerow([name] + [repr(v) for v in row])
    return out.getvalue()
