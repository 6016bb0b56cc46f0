"""Command-line front end.

Four commands: ``select`` (run the randomized selection on a CSV dataset),
``infer`` (select, then invert pivots into per-coordinate intervals for the
requested methods), ``simulate`` (run a Monte-Carlo study from a config
file), and ``validate`` (pivot-uniformity check).  All four go through the
pipeline in ``exactsi.study``, which also checks that each requested method
has the options it needs: the CLI parses arguments, calls the pipeline, and
turns a failing target into an error row.  Outputs are UTF-8 JSON with keys in fixed
order (strict RFC 8259: an undefined number is null) and RFC-4180 CSV (an
empty cell); identical command and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import ExactSIError, InvalidArgumentError
from .selection import Dataset, _kkt_residual
from .study import (
    CSV_COLUMNS,
    KNOWN_METHODS,
    SimConfig,
    calibrate,
    fit_method,
    randomized_selection,
    run_study,
    validate_pivot_uniformity,
)

# Not called here: the pipeline in .study makes these calls.  The benchmark's
# trace hooks (bench/spans.py, PATCHES) still wrap them under this module's
# names; drop this block once the hooks point at exactsi.study.
from .conditioning import build_geometry, build_target  # noqa: E402,F401
from .inference import (  # noqa: E402,F401
    invert_pivot,
    pivot_params,
    plug_in_sigma2,
    polyhedral_interval,
    split_inference,
    uv_inference,
)
from .selection import (  # noqa: E402,F401
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
)


def read_csv_dataset(
    path: str, response: str = "y", standardize: bool = False, sigma: float | None = None
) -> tuple[Dataset, list[str]]:
    """Load a header-carrying numeric CSV; every non-response column is a feature.

    The body is parsed by numpy's C reader (``np.loadtxt``), streamed from the
    open file: the file is never copied whole into memory.  Where that parse
    cannot vouch for its result (a quote in the header, a cell it rejects,
    any warning, no data rows, or a column count other than the header's),
    the file is read again from the top by a loop that calls ``float()`` on
    each cell.  The loop is the only source of diagnostics (row, column and
    cell of a non-numeric value; field counts) and the only path for cells
    that only ``float()`` accepts, such as quoted cells, ``1_0`` or non-ASCII
    digits.  Where both parse a file they give the same doubles, bit for bit.
    A file that is not UTF-8 text raises ``InvalidArgumentError``.
    """
    try:
        # np.loadtxt's decode error is a ValueError: the loop raises it again
        parsed = _parse_csv_fast(path, response) or _parse_csv_loop(path, response)
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not UTF-8 text ({exc})") from None
    y, X, names = parsed
    if standardize:
        X = X - X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        X = X / scale
    return Dataset(y=y, X=X, sigma=sigma), names


def _parse_csv_fast(path: str, response: str):
    """``(y, X, names)`` by numpy's C parser, or None where it cannot vouch for them."""
    # utf-8-sig drops the byte-order mark that some spreadsheet exports write
    with open(path, newline="", encoding="utf-8-sig") as fh:
        line = fh.readline()
        # a quoted header field may hold a comma or span lines: csv.reader's job
        if '"' in line:
            return None
        header = next(csv.reader([line]), [])
        if response not in header:
            return None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                # comments=None: the default "#" would silently cut cells
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                return None
    if caught or not table.shape[0] or table.shape[1] != len(header):
        return None
    ridx = header.index(response)
    names = [h for i, h in enumerate(header) if i != ridx]
    # contiguous, as the loop's y is
    return np.ascontiguousarray(table[:, ridx]), np.delete(table, ridx, axis=1), names


def _parse_csv_loop(path: str, response: str):
    """``(y, X, names)`` by ``float()`` on each cell, with the reader's diagnostics."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidArgumentError(f"{path}: empty file") from None
        if response not in header:
            raise InvalidArgumentError(
                f"{path}: response column {response!r} not in header {header}"
            )
        ridx = header.index(response)
        names = [h for i, h in enumerate(header) if i != ridx]
        ys, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidArgumentError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                )
            vals = []
            for col, cell in zip(header, row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise InvalidArgumentError(
                        f"{path}: row {line_no}, column {col!r}: "
                        f"not numeric: {cell!r}"
                    ) from None
            ys.append(vals[ridx])
            rows.append([v for i, v in enumerate(vals) if i != ridx])
    if not rows:
        raise InvalidArgumentError(f"{path}: no data rows")
    return np.asarray(ys, dtype=float), np.asarray(rows, dtype=float), names


def _write_json(obj, path: str | None) -> None:
    # strict JSON: callers give None (null) where a value is undefined, so any
    # NaN or infinity that still arrives is a fault and raises here
    text = json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_csv(rows: list[dict], columns, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


def cmd_select(args) -> int:
    data, names = read_csv_dataset(args.input, args.response, args.standardize, args.sigma)
    cal = calibrate(
        data, ("exact",), lam=args.lam, rho=args.rho, tau2=args.tau2, epsilon=args.epsilon
    )
    scheme, _, outcome, _ = randomized_selection(data, cal, args.seed)
    b = np.zeros(data.p)
    b[outcome.selected] = outcome.active_solution
    c = data.X.T @ data.y + outcome.randomization
    report = {
        "command": "select",
        "input": args.input,
        "n": data.n,
        "p": data.p,
        "lambda": cal.lam,
        "epsilon": cal.epsilon,
        "tau2": scheme.tau2,
        "sigma2_hat": cal.sigma2,
        "seed": args.seed,
        "selected_count": int(outcome.selected.size),
        "selected": [names[j] for j in outcome.selected],
        "selected_indices": [int(j) for j in outcome.selected],
        "signs": [int(s) for s in outcome.signs],
        "active_solution": [float(v) for v in outcome.active_solution],
        "kkt_residual": _kkt_residual(data.X.T @ (data.X @ b), c, b, cal.lam, cal.epsilon),
    }
    _write_json(report, args.out)
    return 0


def _infer_rows(args, data: Dataset, names: list[str]) -> list[dict]:
    cal = calibrate(
        data, args.method, lam=args.lam, rho=args.rho, tau2=args.tau2, epsilon=args.epsilon
    )
    rows: list[dict] = []

    def add(est, label=None, error=""):
        label = est.target_label if est is not None else label
        rows.append(
            {
                "method": method,
                "feature": names[label] if label is not None and label >= 0 else "",
                "index": label if label is not None else -1,
                "lower": est.lower if est else None,
                "upper": est.upper if est else None,
                "level": 1.0 - args.alpha,
                "significant": int(not est.covers(0.0)) if est else -1,
                "clipped": int(est.clipped) if est else 0,
                "error": error,
            }
        )

    for method in args.method:
        fit = fit_method(data, cal, method, args.model, args.alpha, args.seed)
        for j, label in enumerate(fit.selected):
            try:
                add(fit.interval(j))
            except ExactSIError as exc:
                add(None, label=int(label), error=str(exc))
    return rows


INFER_COLUMNS = (
    "method",
    "feature",
    "index",
    "lower",
    "upper",
    "level",
    "significant",
    "clipped",
    "error",
)


def cmd_infer(args) -> int:
    data, names = read_csv_dataset(args.input, args.response, args.standardize, args.sigma)
    rows = _infer_rows(args, data, names)
    per_method = {}
    for method in args.method:
        good = [r for r in rows if r["method"] == method and not r["error"]]
        per_method[method] = {
            "intervals": len(good),
            "errors": sum(1 for r in rows if r["method"] == method and r["error"]),
            "mean_length": (
                float(np.mean([r["upper"] - r["lower"] for r in good])) if good else None
            ),
            "significant": sum(r["significant"] == 1 for r in good),
        }
    report = {
        "command": "infer",
        "input": args.input,
        "model": args.model,
        "alpha": args.alpha,
        "seed": args.seed,
        "methods": per_method,
        "rows": rows,
    }
    if args.out:
        _write_json(report, args.out + ".json")
        _write_csv(rows, INFER_COLUMNS, args.out + ".csv")
    else:
        _write_json(report, None)
    return 0


def parse_config_file(path: str) -> dict:
    """key = value lines; [section] headers and #-comments are skipped."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"{path}: line {line_no}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


# a config-file value is converted by the type of its field's default, and a
# ``lambda_rule`` other than "theory" to float; ``methods`` is a comma-separated list
_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(SimConfig)}
_CONFIG_FIELDS["lambda_rule"] = float


def build_sim_config(args) -> SimConfig:
    values: dict = {}
    if args.config:
        raw = parse_config_file(args.config)
        for key, val in raw.items():
            if key == "methods":
                values["methods"] = tuple(m.strip() for m in val.split(",") if m.strip())
            elif key in _CONFIG_FIELDS:
                convert = _CONFIG_FIELDS[key]
                try:
                    values[key] = val if (key, val) == ("lambda_rule", "theory") else convert(val)
                except ValueError:
                    raise InvalidArgumentError(
                        f"{args.config}: {key} = {val!r} does not parse as {convert.__name__}"
                    ) from None
            else:
                raise InvalidArgumentError(f"unknown config key {key!r}")
    # flags win over the file
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return SimConfig(**values)


def _nan_to_none(record) -> dict:
    """A record's fields, with the NaN of an undefined statistic as None."""
    return {
        k: None if isinstance(v, float) and math.isnan(v) else v
        for k, v in asdict(record).items()
    }


def _summary_json(summary) -> dict:
    return {
        "command": "simulate",
        "config": asdict(summary.config),
        "methods": {m: _nan_to_none(ms) for m, ms in summary.methods.items()},
    }


def cmd_simulate(args) -> int:
    config = build_sim_config(args)
    summary = run_study(config, workers=args.workers)
    out = args.out or "study"
    _write_json(_summary_json(summary), out + ".json")
    _write_csv(summary.rows, CSV_COLUMNS, out + ".csv")
    return 0


def cmd_validate(args) -> int:
    config = build_sim_config(args)
    reports = validate_pivot_uniformity(config)
    payload = {
        "command": "validate",
        "config": asdict(config),
        "reports": {
            m: {**asdict(r), "uniform_at_1pct": bool(r.p_value > 0.01)}
            for m, r in reports.items()
        },
    }
    _write_json(payload, (args.out + ".json") if args.out else None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactsi",
        description="Exact selective inference with Gaussian randomization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="CSV file with a header row")
            p.add_argument("--response", default="y", help="response column name")
            p.add_argument(
                "--standardize", action="store_true", help="center and scale features"
            )
        p.add_argument("--model", choices=("full", "selected"), default="selected")
        p.add_argument("--alpha", type=float, default=0.1)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--rho", type=float, default=None, help="split proportion n1/n")
        p.add_argument("--tau2", type=float, default=None, help="randomization variance")
        p.add_argument("--epsilon", type=float, default=None, help="ridge term")
        p.add_argument("--sigma", type=float, default=None, help=(
            "known noise sd; else var(y) if n <= p, else least squares on the"
            " independent columns of X (a column that X'X loses, such as a"
            " duplicate, is left out and jitters the randomization covariance)"
        ))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (or base name)")

    p_select = sub.add_parser("select", help="run the randomized selection")
    add_common(p_select)
    p_select.set_defaults(func=cmd_select)

    p_infer = sub.add_parser("infer", help="selection plus confidence intervals")
    add_common(p_infer)
    p_infer.add_argument(
        "--method",
        action="append",
        choices=KNOWN_METHODS,
        default=None,
        help="repeatable; defaults to exact",
    )
    p_infer.set_defaults(func=cmd_infer)

    def add_sim(p):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--sparsity", type=int, default=None)
        p.add_argument("--signal-fraction", dest="signal_fraction", type=float, default=None)
        p.add_argument("--corr", type=float, default=None)
        p.add_argument("--sigma2", type=float, default=None)
        p.add_argument("--n-reps", dest="n_reps", type=int, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--model", choices=("full", "selected"), default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--lambda", dest="lambda_rule", metavar="LAM", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--method", dest="methods", action="append", choices=KNOWN_METHODS)
        p.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo study")
    add_sim(p_sim)
    p_sim.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; pin BLAS to one thread per worker "
        "(OPENBLAS_NUM_THREADS=1): on 2 cores, 2 workers ran 100 replicates "
        "in 6.8-8.8 s at the default BLAS threads and in 1.8 s at one",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="pivot uniformity check")
    add_sim(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "method", None) is None and args.command in ("infer",):
        args.method = ["exact"]
    try:
        return args.func(args)
    except ExactSIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
