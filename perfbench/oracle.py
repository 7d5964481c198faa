"""Independent checks of `report` output, run outside the timed section.

Every number is checked against the dataset the benchmark generated, with
SciPy's HiGHS solver as the oracle instead of the program's own simplex:

* theta equals the input-oriented BCC score HiGHS finds, within 1e-6;
* each target dominates its DMU, agrees with the printed slacks, and is
  BCC-strongly-efficient by HiGHS: the additive model finds no slack left at
  it, which also rules out a radial score below 1;
* MCRS weights are nonnegative, sum to 1 and reconstruct the target;
* each RTS label follows from the printed intercept bounds;
* the JSON validates against the report schema it names.

Columns are divided by their largest value before any LP is solved; the
scores and relative slacks checked here do not change under such rescaling.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np
from scipy.optimize import linprog

from .workloads import BenchDataset

THETA_TOL = 1e-6
# reconstruction tolerance relative to each column's largest value
REL_TOL = 1e-6
# tolerance on the sum of relative slacks left at a target
SLACK_TOL = 1e-6
# twice the rounding of a number printed to 9 significant digits.  On a
# nearly flat facet a target moved this little can gain a much larger slack;
# the LP's duals say how much, and the slack check allows for it.
PRINT_REL = 1e-8


def _number(v) -> float:
    if v == "+inf":
        return np.inf
    if v == "-inf":
        return -np.inf
    return float(v)


def bcc_theta(x: np.ndarray, y: np.ndarray, xo: np.ndarray, yo: np.ndarray) -> float:
    """min theta with sum(l x) <= theta xo, sum(l y) >= yo, sum(l) = 1; nan if
    HiGHS finds no optimum."""
    n, m = x.shape
    s = y.shape[1]
    c = np.zeros(1 + n)
    c[0] = 1.0
    a_ub = np.zeros((m + s, 1 + n))
    a_ub[:m, 0] = -xo
    a_ub[:m, 1:] = x.T
    a_ub[m:, 1:] = -y.T
    b_ub = np.concatenate([np.zeros(m), -yo])
    a_eq = np.concatenate([[0.0], np.ones(n)])[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None),
                  method="highs")
    return float(res.fun) if res.status == 0 else np.nan


def relative_slack(x: np.ndarray, y: np.ndarray, xt: np.ndarray, yt: np.ndarray
                   ) -> tuple[float, float]:
    """Largest sum of relative slacks at the point (xt, yt) over the VRS
    technology (the additive model), which is zero exactly when the point is
    Pareto efficient, and the most that sum can change when the point moves by
    PRINT_REL relative.  (nan, nan) if HiGHS finds no optimum."""
    n, m = x.shape
    s = y.shape[1]
    weights = 1.0 / np.maximum(np.concatenate([xt, yt]), 1e-12)
    c = np.concatenate([np.zeros(n), -weights])
    a_eq = np.zeros((m + s + 1, n + m + s))
    a_eq[:m, :n] = x.T
    a_eq[:m, n:n + m] = np.eye(m)
    a_eq[m:m + s, :n] = y.T
    a_eq[m:m + s, n + m:] = -np.eye(s)
    a_eq[m + s, :n] = 1.0
    b_eq = np.concatenate([xt, yt, [1.0]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        return np.nan, np.nan
    change = PRINT_REL * float(np.abs(res.eqlin.marginals[:m + s]) @ b_eq[:m + s])
    return float(-res.fun), change


class Checker:
    """Checks report documents; holds one schema validator per schema version."""

    def __init__(self, schema_dir: Path):
        self.schema_dir = schema_dir
        self._validators: dict[str, jsonschema.protocols.Validator] = {}

    def _validator(self, version: str):
        if version not in self._validators:
            path = self.schema_dir / f"report-v{version}.schema.json"
            schema = json.loads(path.read_text(encoding="utf-8"))
            cls = jsonschema.validators.validator_for(schema)
            self._validators[version] = cls(schema)
        return self._validators[version]

    def check(self, text: str, ds: BenchDataset) -> dict[int, str]:
        """Problems found in one report, keyed by DMU record index.  A problem
        with the document as a whole is reported against every record."""
        everything = range(ds.n)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return dict.fromkeys(everything, f"output is not JSON: {exc}")
        version = str(doc.get("schema_version"))
        try:
            errors = list(self._validator(version).iter_errors(doc))
        except OSError as exc:
            return dict.fromkeys(everything, f"no schema for version {version!r}: {exc}")
        if errors:
            return dict.fromkeys(everything, f"schema: {errors[0].message}")
        names = [rec["name"] for rec in doc["results"]]
        if names != [f"U{k + 1}" for k in everything]:
            return dict.fromkeys(everything, "results do not list every DMU in order")

        scale_x = ds.x.max(axis=0)
        scale_y = ds.y.max(axis=0)
        x, y = ds.x / scale_x, ds.y / scale_y
        tol = float(doc["config"]["zero_tol"])
        problems = {}
        for o, rec in enumerate(doc["results"]):
            problem = self._record(rec, o, x, y, scale_x, scale_y, tol)
            if problem:
                problems[o] = f"{rec['name']}: {problem}"
        return problems

    def _record(self, rec, o, x, y, scale_x, scale_y, tol) -> str | None:
        theta = bcc_theta(x, y, x[o], y[o])
        if not abs(rec["efficiency"]["theta"] - theta) <= THETA_TOL:
            return f"theta {rec['efficiency']['theta']} but HiGHS finds {theta}"

        proj = rec.get("projection")
        if proj is not None:
            xt = np.array(proj["target_inputs"], dtype=float) / scale_x
            yt = np.array(proj["target_outputs"], dtype=float) / scale_y
            slack = np.array(list(proj["slacks"].values()), dtype=float)
            m = x.shape[1]
            s_in, s_out = slack[:m] / scale_x, slack[m:] / scale_y
            if (s_in < -REL_TOL).any() or (s_out < -REL_TOL).any():
                return "negative slack"
            if (np.abs(x[o] - s_in - xt) > REL_TOL).any() or (
                    np.abs(y[o] + s_out - yt) > REL_TOL).any():
                return "target does not equal the DMU moved by its slacks"
            left, change = relative_slack(x, y, xt, yt)
            if np.isnan(left):  # printed a hair outside the technology: pull it in
                left, change = relative_slack(x, y, xt * (1 + PRINT_REL), yt / (1 + PRINT_REL))
                change *= 2
            if not left <= SLACK_TOL + change:
                return f"target is not efficient: relative slack {left} left at it"

            members = rec.get("mcrs", {}).get("members")
            if members is not None:
                idx = [int(mb["name"][1:]) - 1 for mb in members]
                w = np.array([mb["weight"] for mb in members], dtype=float)
                if (w < 0).any() or abs(w.sum() - 1.0) > REL_TOL:
                    return f"MCRS weights sum to {w.sum()}"
                if (np.abs(w @ x[idx] - xt) > REL_TOL).any() or (
                        np.abs(w @ y[idx] - yt) > REL_TOL).any():
                    return "MCRS weights do not reconstruct the target"

        rts = rec.get("rts")
        if rts is not None:
            upper, lower = _number(rts["intercept_upper"]), _number(rts["intercept_lower"])
            expected = "irs" if upper < -tol else "drs" if lower > tol else "crs"
            if rts["label"] != expected:
                return f"RTS label {rts['label']} but bounds [{lower}, {upper}] say {expected}"
            if rts["stages"] == 1 and not (upper < -tol and lower == -np.inf):
                return "one RTS stage reported although the label needed two"
        return None
