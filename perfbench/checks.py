"""Checks on the CSVs a sweep process writes."""

import csv
import hashlib
import math
from pathlib import Path

COLUMNS = ("scenario", "scheme", "M", "trials", "resamples", "r_sum_mean",
           "r_sum_se", "r_sum_noeve_mean", "r_sum_noeve_se", "leakage_mean",
           "leakage_se", "cost_mean", "cost_se")
INT_COLUMNS = ("M", "trials", "resamples")
FLOAT_COLUMNS = COLUMNS[5:]

# A kernel that reorders floating-point work may move the 9-digit CSV in its
# last digits; anything larger than this is a wrong result, not drift.
MAX_REL_DRIFT = 1e-6


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != COLUMNS:
            raise ValueError(f"{path.name}: header {reader.fieldnames}")
        return list(reader)


def check_csv(path: Path, sweep) -> list:
    """Problems found in one sweep's CSV; an empty list means it passed."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    try:
        rows = read_rows(path)
    except (ValueError, csv.Error) as exc:
        return [str(exc)]
    if [r["M"] for r in rows] != [str(m) for m in sweep.m_values]:
        return [f"{path.name}: M column {[r['M'] for r in rows]}, "
                f"expected {list(sweep.m_values)}"]
    problems = []
    for r in rows:
        where = f"{path.name} M={r['M']}"
        if (r["scenario"], r["scheme"]) != (sweep.scenario, sweep.scheme):
            problems.append(f"{where}: labels {r['scenario']},{r['scheme']}")
        try:
            ints = {k: int(r[k]) for k in INT_COLUMNS}
            x = {k: float(r[k]) for k in FLOAT_COLUMNS}
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if ints["trials"] != sweep.trials:
            problems.append(f"{where}: trials {ints['trials']} != {sweep.trials}")
        if ints["resamples"] < 0:
            problems.append(f"{where}: resamples {ints['resamples']}")
        bad = [k for k, v in x.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite {bad}")
            continue
        if not 0.0 <= x["r_sum_mean"] <= x["r_sum_noeve_mean"]:
            problems.append(f"{where}: r_sum_mean {x['r_sum_mean']} not in "
                            f"[0, r_sum_noeve_mean {x['r_sum_noeve_mean']}]")
        if not 0.0 <= x["cost_mean"] <= 1.0:
            problems.append(f"{where}: cost_mean {x['cost_mean']} not in [0, 1]")
    return problems


def max_rel_drift(path: Path, reference: Path) -> float:
    """Largest relative difference of any numeric field against the
    reference CSV (absolute where the reference value is 0)."""
    worst = 0.0
    for row, ref in zip(read_rows(path), read_rows(reference), strict=True):
        for key in INT_COLUMNS + FLOAT_COLUMNS:
            a, b = float(row[key]), float(ref[key])
            worst = max(worst, abs(a - b) / (abs(b) if b != 0.0 else 1.0))
    return worst
