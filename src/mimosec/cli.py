"""Config ingestion, experiment orchestration, and CSV/manifest emission.

Config files are line-oriented ``key: value`` documents; ``#`` starts a
comment and a line containing only ``---`` separates multiple sweep
definitions in one file.  Emitted results are a CSV per sweep plus a JSON
manifest that can itself be passed back to ``sweep`` to reproduce the CSV
byte for byte.
"""

import argparse
import contextlib
import csv
import io
import json
import logging
import os
import re
import sys
from dataclasses import astuple, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (COST_MODELS, GROWTH_MODELS, clt_check,
                          fit_cost_anchor, fit_growth, gumbel_check)
from .channel import derive_seed
from .config import KINDS, MAX_SIZE, PRESETS, SPEC_FIELDS, SweepSpec
from .errors import ConfigParseError, MimosecError
from .harness import MAX_WORKERS, SweepPoint, SweepResult, _trial_with_resampling, run_sweeps

_FIELD_BY_KEY = {f.key: f for f in SPEC_FIELDS}
_CONFIG_KEY = {f.manifest: f.key for f in SPEC_FIELDS}


def _read_documents(text: str, path: str) -> list:
    """Split a text config into its documents, each a dict mapping manifest
    keys (and ``preset``) to (typed value, line number)."""
    documents = [{}]
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "---":
            documents.append({})
            continue
        if ":" not in line:
            raise ConfigParseError(f"expected 'key: value', got '{line}'",
                                   path=path, line=lineno)
        key, _, raw = line.partition(":")
        key, raw = key.strip(), raw.strip()
        field = _FIELD_BY_KEY.get(key)
        if field is None and key != "preset":
            raise ConfigParseError("unknown key", path=path, key=key, line=lineno)
        name, kind = (field.manifest, KINDS[field.kind]) if field else (key, KINDS["string"])
        if name in documents[-1]:
            raise ConfigParseError("duplicate key", path=path, key=key, line=lineno)
        try:
            documents[-1][name] = (kind.read(raw), lineno)
        except ValueError:
            raise ConfigParseError(f"expected {kind.text}, got '{raw}'",
                                   path=path, key=key, line=lineno) from None
    documents = [d for d in documents if d]
    if not documents:
        raise ConfigParseError("config defines no sweeps", path=path)
    return documents


def _spec_from_text(doc: dict, path: str) -> SweepSpec:
    entries = {key: value for key, (value, _) in doc.items()}
    preset = entries.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigParseError(f"unknown preset '{preset}', expected one of "
                                   f"{sorted(PRESETS)}", path=path, key="preset",
                                   line=doc["preset"][1])
        entries = {"scenario": preset, **PRESETS[preset], **entries}
    try:
        return SweepSpec.from_dict(entries, path=path)
    except ConfigParseError as exc:
        # Name the key as the config file spells it, with its line.
        line = doc[exc.key][1] if exc.key in doc else None
        raise ConfigParseError(exc.reason, path=path, key=_CONFIG_KEY.get(exc.key, exc.key),
                               line=line) from exc


def parse_config(path) -> list:
    """Parse a sweep config (text format or emitted JSON manifest) into a
    list of SweepSpec, checked against ``config.SPEC_FIELDS``, read off ``SweepSpec``'s fields."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read: {exc.strerror}", path=str(path)) from None
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"cannot read: not UTF-8 ({exc.reason})", path=str(path)) from None
    if path.suffix != ".json":
        return [_spec_from_text(doc, str(path)) for doc in _read_documents(text, str(path))]
    try:
        body = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
        raise ConfigParseError(f"not valid JSON: {exc}", path=str(path)) from None
    if not isinstance(body, dict) or "sweep" not in body:
        raise ConfigParseError("expected a manifest object with a 'sweep' entry",
                               path=str(path), key="sweep")
    return [SweepSpec.from_dict(body["sweep"], path=str(path))]


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _print_report(*lines) -> None:
    """Print each (name, value) as ``name: value``: a float to 9 significant
    digits, an array comma-joined, and a None not at all."""
    for name, value in lines:
        if isinstance(value, float):
            value = _fmt(value)
        elif isinstance(value, np.ndarray):
            value = ", ".join(map(_fmt, value))
        if value is not None:
            print(f"{name}: {value}")


def _write_all(files) -> None:
    """Write each (path, text) to a temp file in its directory, then rename
    them into place.  If any step fails, none of the files is left behind."""
    staged, placed = [], []
    try:
        for path, text in files:
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.append(tmp)
            tmp.write_text(text, encoding="utf-8", newline="\n")
        for tmp, (path, _) in zip(staged, files):
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for leftover in staged + placed:
            leftover.unlink(missing_ok=True)
        raise


def emit_results(result: SweepResult, path) -> None:
    """Write one CSV row per swept m plus a JSON manifest alongside.

    The columns are scenario, scheme and the fields of ``SweepPoint``, with
    ``m`` headed ``M``.  Floating-point fields carry 9 significant digits
    with a dot decimal separator; rerunning the manifest reproduces the CSV
    byte for byte.  Both files appear together or, if writing fails, not at
    all.
    """
    path = Path(path)
    names = [f.name for f in fields(SweepPoint)]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["scenario", "scheme", *("M" if n == "m" else n for n in names)])
    for p in result.points:
        writer.writerow([result.spec.scenario, result.spec.scheme,
                         *(_fmt(v) if isinstance(v, float) else v for v in astuple(p))])
    manifest = {
        "tool": "mimosec",
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "master_seed": result.spec.master_seed,
        "output": path.name,
        "sweep": result.spec.to_dict(),
        # A zero gain or an overflowing ratio gives an infinite dB value,
        # written as null: JSON has no infinity.
        "derived": {name: [v if np.isfinite(v) else None for v in snr.tolist()]
                    for name, snr in (("snr_user_db", result.spec.snr_user_db()),
                                      ("snr_eve_db", result.spec.snr_eve_db()))},
    }
    try:
        _write_all([(path, text.getvalue()),
                    (path.with_suffix(".manifest.json"),
                     json.dumps(manifest, indent=2, allow_nan=False) + "\n")])
    except OSError as exc:
        raise MimosecError(f"cannot write results to {path}: {exc}") from exc


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text)


def _sweep_workers(args) -> int:
    """The worker count: ``--workers``, else ``SIM_THREADS``, else the number
    of CPUs this process may run on, capped at ``MAX_WORKERS``.  A given
    count above the cap is an error, raised before any process starts."""
    name, workers = "--workers", args.workers
    if workers is None:
        name, raw = "SIM_THREADS", os.environ.get("SIM_THREADS")
        if raw is None:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            return min(cpus, MAX_WORKERS)
        try:
            workers = int(raw)
        except ValueError:
            raise MimosecError(f"SIM_THREADS must be an integer, got '{raw}'") from None
    if workers > MAX_WORKERS:
        raise MimosecError(f"{name} must be at most {MAX_WORKERS}, got {workers}")
    return workers


def _seed_flag(args) -> int | None:
    """``--seed``, checked to be non-negative before any work starts."""
    if args.seed is not None and args.seed < 0:
        raise MimosecError(f"--seed must be non-negative, got {args.seed}")
    return args.seed


def _cmd_sweep(args) -> int:
    seed = _seed_flag(args)
    specs = parse_config(args.config)
    workers = _sweep_workers(args)
    if seed is not None:
        specs = [replace(spec, master_seed=seed) for spec in specs]
    out_dir = Path(args.out)
    # The directories this call makes, deepest first; a failed run removes
    # those it leaves empty.
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MimosecError(f"cannot create output directory {out_dir}: {exc.strerror}") from None
    used = set()
    try:
        for result in run_sweeps(specs, workers=workers):
            stem = _safe_name(f"{result.spec.scenario}_{result.spec.scheme}")
            if stem in used:
                stem = f"{stem}_{len(used)}"
            used.add(stem)
            target = out_dir / f"{stem}.csv"
            emit_results(result, target)
            print(f"wrote {target}")
    except BaseException:
        with contextlib.suppress(OSError):  # ends at the first directory not empty
            for directory in created:
                directory.rmdir()
        raise
    return 0


def _read_results_csv(path: Path):
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise MimosecError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise MimosecError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None
    if not rows:
        raise MimosecError(f"{path}: no data rows to fit")
    return rows


def _column(rows, name: str, kind, path: Path) -> list:
    """One column of a results CSV read as ``kind``; a missing column or a
    cell that is not a finite number of that kind raises MimosecError
    naming it."""
    if name not in rows[0]:
        raise MimosecError(f"{path}: no column '{name}'")
    values = []
    for lineno, row in enumerate(rows, start=2):
        where = f"{path} line {lineno} column '{name}'"
        try:
            value = kind(row[name])
        except (TypeError, ValueError):
            raise MimosecError(f"{where}: expected {'an integer' if kind is int else 'a number'}, "
                               f"got {row[name]!r}") from None
        # NaN fails every comparison; an integer past a double's range counts
        # as infinite, since the fit works in doubles.
        if not abs(value) <= sys.float_info.max:
            raise MimosecError(f"{where}: expected a finite number, got {row[name]!r}")
        values.append(value)
    return values


def _lookup_k(csv_path: Path) -> int:
    manifest = csv_path.with_suffix(".manifest.json")
    if manifest.exists():
        return parse_config(manifest)[0].K
    print(f"warning: no {manifest.name} next to {csv_path.name}; "
          "fitting with K=1 (set it with --k)", file=sys.stderr)
    return 1


def _cmd_fit(args) -> int:
    for flag, value in (("--k", args.k), ("--anchor", args.anchor)):
        if value is not None and not 1 <= value <= MAX_SIZE:
            raise MimosecError(f"{flag} must be at least 1 and at most {MAX_SIZE}, got {value}")
    path = Path(args.csv)
    rows = _read_results_csv(path)
    m = _column(rows, "M", int, path)
    if args.model in GROWTH_MODELS:
        y = _column(rows, "r_sum_noeve_mean", float, path)
        k = args.k if args.k is not None else _lookup_k(path)
        fit = fit_growth(m, y, k, args.model)
    else:
        c = _column(rows, "cost_mean", float, path)
        anchor = args.anchor if args.anchor is not None else max(m)
        fit = fit_cost_anchor(m, c, args.model, anchor)
    _print_report(*vars(fit).items())
    return 0


def _cmd_gumbel(args) -> int:
    check = gumbel_check(args.m, args.trials, _seed_flag(args))
    _print_report(("m", check.m), ("trials", check.trials), ("ks_statistic", check.ks_statistic),
                  ("mean_shifted_max", check.sample_mean_shifted),
                  ("mean_max", check.sample_mean_max))
    return 0


def _cmd_clt(args) -> int:
    ks = clt_check(args.m, args.trials, _seed_flag(args))
    _print_report(("m", args.m), ("trials", args.trials), ("ks_statistic", ks))
    return 0


def _cmd_single(args) -> int:
    """Trial ``--trial`` at ``--m`` of the config's first sweep, drawn and
    resampled exactly as ``sweep`` draws it."""
    seed = _seed_flag(args)
    spec = parse_config(args.config)[0]
    if seed is None:
        seed = spec.master_seed
    cfg = spec.config_for(args.m)
    if not 0 <= args.trial < spec.trials:
        raise MimosecError(f"--trial must be a non-negative index below the sweep's "
                           f"{spec.trials} trials, in [0, {spec.trials}), got {args.trial}")
    report, resamples = _trial_with_resampling(cfg, spec.scheme, spec.quant_bits,
                                               derive_seed(seed, args.m), args.trial,
                                               spec.trials)
    _print_report(("scenario", spec.scenario), ("scheme", spec.scheme), ("m", args.m),
                  ("seed", seed), ("trial", args.trial), ("resamples", resamples.sum()),
                  *((name, getattr(report, name)) for name in (
                      "sinr", "esnr", "r_secrecy", "r_noeve", "interference", "eve_power",
                      "r_sum", "r_sum_noeve", "leakage", "cost")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimosec",
        description="Monte Carlo secrecy-rate simulator for massive MIMO "
                    "downlinks with antenna selection and hybrid precoding.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log one line per swept array size")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the sweeps defined in a config file")
    p.add_argument("config", help="config file or emitted .manifest.json")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed of every sweep")
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker processes, at most {MAX_WORKERS} "
                        "(default: SIM_THREADS or the CPUs this process may run on)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="fit a growth or cost model to a results CSV")
    p.add_argument("csv")
    p.add_argument("--model", required=True,
                   choices=list(GROWTH_MODELS) + list(COST_MODELS))
    p.add_argument("--anchor", type=int, default=None,
                   help="anchor m for cost models (default: largest swept m)")
    p.add_argument("--k", type=int, default=None,
                   help="user count scaling the growth regressor "
                        "(default: from the sibling manifest, else 1)")
    p.set_defaults(func=_cmd_fit)

    for name, func, text in (
            ("gumbel", _cmd_gumbel, "extreme-value check of the max channel gain"),
            ("clt", _cmd_clt, "normality check of the phase-aligned cross sum")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("single", help="run one trial and print its rate report")
    p.add_argument("config")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=_cmd_single)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(message)s")
    try:
        return args.func(args)
    except MimosecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # the shell's code for a process ended by SIGINT
    except MemoryError as exc:
        # Sizes within bounds whose arrays still do not fit this machine.
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
