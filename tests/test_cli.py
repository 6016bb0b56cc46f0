import csv
import json
import math
import re

import numpy as np
import pytest
from conftest import reference_read_csv, take
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from exactsi import cli, conditioning, inference, study
from exactsi.cli import (
    build_parser,
    build_sim_config,
    main,
    parse_config_file,
    read_csv_dataset,
)
from exactsi.errors import ExactSIError, InvalidArgumentError, NumericalDegeneracyError
from exactsi.study import (
    SimConfig,
    _run_replicate,
    _seed_for,
    generate_design,
    generate_response,
    run_study,
    support_indices,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def strict_json(path):
    """Parse as RFC 8259 JSON: a bare NaN or Infinity fails the test."""

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def make_regression_csv(path, rng, n=50, p=5, signal=4.0):
    X = rng.standard_normal((n, p))
    y = X[:, 0] * signal - X[:, 1] * signal + rng.standard_normal(n)
    header = ["y"] + [f"x{j}" for j in range(p)]
    write_csv(path, header, np.column_stack([y, X]).tolist())
    return path


def make_mutation_panel_csv(path, rng, n=633, p=91):
    """Binary mutation indicators with a continuous log-resistance response."""
    freqs = rng.uniform(0.03, 0.4, size=p)
    X = (rng.random((n, p)) < freqs).astype(float)
    beta = np.zeros(p)
    signal_idx = rng.choice(p, size=6, replace=False)
    beta[signal_idx] = rng.uniform(1.0, 2.5, size=6)
    y = X @ beta + rng.standard_normal(n) * 0.8
    header = ["resistance"] + [f"P{j}" for j in range(p)]
    write_csv(path, header, np.column_stack([y, X]).tolist())
    return path


def read_outcome(reader, path):
    """``[names], y, X`` as read, or the class and message of the error."""
    try:
        data, names = reader(str(path))
    except Exception as exc:
        return type(exc), str(exc)
    return names, data.y, data.X


@st.composite
def decimal_cells(draw):
    """Decimal spellings: 1-24 digits, a point anywhere, an optional exponent
    (-330 to 310), a sign, and padding."""
    digits = draw(st.text("0123456789", min_size=1, max_size=24))
    point = draw(st.integers(0, len(digits)))
    body = digits if point == len(digits) else digits[:point] + "." + digits[point:]
    if draw(st.booleans()):
        exp = draw(st.one_of(st.integers(-30, 30), st.integers(-330, 310)))
        body += draw(st.sampled_from(["e", "E"])) + str(exp)
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    pad = st.sampled_from(["", "", " ", "  ", "\t"])
    return draw(pad) + sign + body + draw(pad)


# signed zero and non-finite values, which both parsers accept, and cells that
# only float() accepts or that neither accepts
ODD_CELLS = ["-0", "nan", "-inf", "inf", "1_0", "\u0661", '"1.5"', '" 2"', "", "0x1", "#3"]


@st.composite
def csv_files(draw):
    """CSV text with the response in any column, CRLF or LF, blank and
    whitespace-only lines, trailing commas, quoted cells and a BOM."""
    ncols = draw(st.integers(1, 4))
    names = [f"x{j}" for j in range(ncols)]
    names.insert(draw(st.integers(0, ncols)), "y")
    odd = draw(st.booleans())
    cell = st.one_of(decimal_cells(), st.sampled_from(ODD_CELLS)) if odd else decimal_cells()
    if draw(st.booleans()) and odd:
        header = ",".join(f'"{h}"' for h in names)
    else:
        header = ",".join(names)
    lines = [header]
    for _ in range(draw(st.integers(2, 6))):
        row = ",".join(draw(st.lists(cell, min_size=len(names), max_size=len(names))))
        if odd and draw(st.integers(0, 9)) == 0:
            row += ","
        lines.append(row)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "\t"] if odd else [""])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


class TestReadCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        path = make_regression_csv(tmp_path / "d.csv", rng)
        data, names = read_csv_dataset(str(path))
        assert data.n == 50 and data.p == 5
        assert names == [f"x{j}" for j in range(5)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidArgumentError):
            read_csv_dataset(str(path))

    def test_non_numeric_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x0\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(InvalidArgumentError, match="row 3.*x0"):
            read_csv_dataset(str(path))

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffy,x0\n1.0,2.0\n3.0,4.0\n".encode("utf-8"))
        data, names = read_csv_dataset(str(path))
        assert names == ["x0"]
        assert data.y.tolist() == [1.0, 3.0]
        assert data.X.tolist() == [[2.0], [4.0]]

    def test_missing_response(self, tmp_path):
        path = tmp_path / "no_y.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidArgumentError, match="response column"):
            read_csv_dataset(str(path))

    @pytest.mark.parametrize(
        "content", [b"y,x\xff0\n1.0,2.0\n", b"y,x0\n1.0,2.0\n3.0,\xff\n"], ids=["header", "body"]
    )
    def test_not_utf8(self, tmp_path, capsys, content):
        path = tmp_path / "latin.csv"
        path.write_bytes(content)
        reason = "'utf-8' codec can't decode byte 0xff"
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: not UTF-8 text ({reason}")):
            read_csv_dataset(str(path))
        assert main(["select", "--input", str(path), "--rho", "0.8"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text (")

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
    def test_header_only(self, tmp_path, body):
        path = tmp_path / "header.csv"
        path.write_bytes(("y,x0" + body).encode())
        with pytest.raises(InvalidArgumentError, match=f"^{path}: no data rows$"):
            read_csv_dataset(str(path))

    @pytest.mark.parametrize(
        "variant", ["plain", "crlf", "blank_lines", "byte_order_mark"]
    )
    def test_benchmark_shaped_csv_takes_the_fast_path(self, tmp_path, monkeypatch, variant):
        rng = np.random.default_rng(11)
        table = rng.standard_normal((600, 301))
        path = tmp_path / "wide.csv"
        header = ",".join(["y"] + [f"x{j}" for j in range(300)])
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
        text = path.read_text()
        if variant == "crlf":
            text = text.replace("\n", "\r\n")
        elif variant == "blank_lines":
            text = text.replace("\n", "\n\n")
        elif variant == "byte_order_mark":
            text = "\ufeff" + text
        path.write_bytes(text.encode())

        def no_loop(*args):
            raise AssertionError("the loop parser ran")

        monkeypatch.setattr(cli, "_parse_csv_loop", no_loop)
        data, names = read_csv_dataset(str(path))
        assert names == [f"x{j}" for j in range(300)]
        assert np.array_equal(data.y, table[:, 0]) and np.array_equal(data.X, table[:, 1:])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_same_as_the_float_loop(self, tmp_path_factory, data):
        """Bit-identical names, y and X, or the same error, as ``float()`` per cell."""
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(data.draw(csv_files()).encode("utf-8"))
        got, want = read_outcome(read_csv_dataset, path), read_outcome(reference_read_csv, path)
        assert got[0] == want[0]
        if isinstance(want[0], list):
            for a, b in zip(got[1:], want[1:]):
                assert a.shape == b.shape and a.dtype == b.dtype == np.float64
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        else:
            assert got == want


class TestSelect:
    def test_mutation_panel_plausible_selection(self, tmp_path):
        rng = np.random.default_rng(1)
        path = make_mutation_panel_csv(tmp_path / "hiv_like.csv", rng)
        out = tmp_path / "sel.json"
        code = main(
            [
                "select",
                "--input",
                str(path),
                "--response",
                "resistance",
                "--rho",
                "0.8",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n"] == 633 and report["p"] == 91
        assert 1 <= report["selected_count"] <= 40
        assert report["kkt_residual"] < 1e-6
        assert len(report["selected"]) == report["selected_count"]

    @pytest.mark.parametrize("lam", [None, "1e9"])
    def test_kkt_residual_is_within_the_certificate(self, tmp_path, lam):
        """``kkt_residual`` is the lasso's stationarity violation at its
        solution, within the certificate ``1e-11 max(||c||_inf, lam)``, also
        when nothing is selected (``--lambda 1e9``)."""
        path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(4))
        out = tmp_path / "sel.json"
        extra = [] if lam is None else ["--lambda", lam]
        args = ["select", "--input", str(path), "--rho", "0.8", "--seed", "3"]
        assert main([*args, *extra, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["selected_count"] == 0) == (lam is not None)
        data, _ = read_csv_dataset(str(path))
        cal = study.calibrate(data, ("exact",), lam=report["lambda"], rho=0.8)
        _, _, outcome, _ = study.randomized_selection(data, cal, 3)
        c = data.X.T @ data.y + outcome.randomization
        assert 0.0 <= report["kkt_residual"] <= 1e-11 * max(np.abs(c).max(), cal.lam)

    def test_huge_lambda_empty_selection_exits_zero(self, tmp_path):
        rng = np.random.default_rng(2)
        path = make_regression_csv(tmp_path / "d.csv", rng)
        out = tmp_path / "sel.json"
        code = main(
            [
                "select",
                "--input",
                str(path),
                "--rho",
                "0.8",
                "--lambda",
                "1e9",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["selected_count"] == 0
        assert report["selected"] == []

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(["select", "--input", str(path), "--rho", "0.8"])
        assert code == 1

    def test_rho_and_tau2_exclusive(self, tmp_path):
        rng = np.random.default_rng(3)
        path = make_regression_csv(tmp_path / "d.csv", rng)
        assert main(["select", "--input", str(path)]) == 1
        assert (
            main(["select", "--input", str(path), "--rho", "0.8", "--tau2", "1.0"]) == 1
        )


class TestInfer:
    def run_infer(self, tmp_path, rng, alpha="0.1", extra=(), seed="5"):
        path = make_regression_csv(tmp_path / "d.csv", rng, n=60, p=6)
        out = tmp_path / f"inf_{alpha}_{seed}"
        code = main(
            [
                "infer",
                "--input",
                str(path),
                "--rho",
                "0.8",
                "--alpha",
                alpha,
                "--seed",
                seed,
                "--out",
                str(out),
                *extra,
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / f"inf_{alpha}_{seed}.json").read_text())
        with open(str(out) + ".csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return report, rows

    def test_intervals_written_and_parse(self, tmp_path):
        rng = np.random.default_rng(4)
        report, rows = self.run_infer(tmp_path, rng)
        good = [r for r in rows if not r["error"]]
        assert good, "expected at least one interval"
        for r in good:
            assert float(r["lower"]) < float(r["upper"])
            assert r["significant"] in ("0", "1")
        assert report["methods"]["exact"]["intervals"] == len(good)

    def test_alpha_nesting_same_seed(self, tmp_path):
        rng = np.random.default_rng(4)
        wide, _ = self.run_infer(tmp_path, rng, alpha="0.1")
        rng = np.random.default_rng(4)
        narrow, _ = self.run_infer(tmp_path, rng, alpha="0.5")
        w = wide["methods"]["exact"]["mean_length"]
        n = narrow["methods"]["exact"]["mean_length"]
        assert n < w

    def test_multi_method(self, tmp_path):
        rng = np.random.default_rng(6)
        report, rows = self.run_infer(
            tmp_path, rng, extra=("--method", "exact", "--method", "split")
        )
        methods = {r["method"] for r in rows}
        assert "exact" in methods and "split" in methods

    @pytest.mark.parametrize("alpha", ["1.5", "0", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_is_rejected(self, tmp_path, capsys, alpha):
        rng = np.random.default_rng(7)
        path = make_regression_csv(tmp_path / "d.csv", rng, n=60, p=6)
        out = tmp_path / "inf"
        code = main(
            [
                "infer", "--input", str(path), "--rho", "0.8", "--alpha", alpha,
                "--method", "exact", "--method", "polyhedral", "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: alpha must lie in (0, 1)\n"
        assert not (tmp_path / "inf.json").exists()
        assert not (tmp_path / "inf.csv").exists()

    def test_method_listed_twice_is_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        path = make_regression_csv(tmp_path / "d.csv", rng, n=60, p=6)
        out = tmp_path / "inf"
        code = main(
            [
                "infer", "--input", str(path), "--rho", "0.8",
                "--method", "exact", "--method", "exact", "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: method 'exact' listed twice\n"
        assert not (tmp_path / "inf.json").exists()


@pytest.mark.parametrize("model", ["selected", "full"])
def test_infer_matches_study_replicate(tmp_path, model):
    """``infer`` on a replicate's data gives the study's intervals bit for bit."""
    cfg = SimConfig(
        n=120, p=20, sparsity=4, corr=0.5, n_reps=1, methods=("exact", "polyhedral"),
        model=model, seed=1,
    )
    summary = run_study(cfg)
    X = generate_design(cfg.n, cfg.p, cfg.corr, _seed_for(cfg.seed, 0, 0))
    y, _ = generate_response(
        X, support_indices(cfg.p, cfg.sparsity), cfg.signal_fraction, cfg.sigma2,
        _seed_for(cfg.seed, 0, 1),
    )
    path = tmp_path / "rep.csv"
    np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",",
               header=",".join(["y"] + [f"x{j}" for j in range(cfg.p)]), comments="")
    code = main(
        [
            "infer", "--input", str(path), "--rho", "0.8",
            "--seed", str(_seed_for(cfg.seed, 0, 2)),
            "--method", "exact", "--method", "polyhedral", "--model", model,
            "--out", str(tmp_path / "inf"),
        ]
    )
    assert code == 0
    rows = json.loads((tmp_path / "inf.json").read_text())["rows"]
    got = [(r["method"], r["index"], r["lower"], r["upper"], r["error"]) for r in rows]
    want = [(r["method"], r["coordinate"], r["lower"], r["upper"], "") for r in summary.rows]
    assert {r[0] for r in want} == {"exact", "polyhedral"}
    assert got == want


def test_per_fit_failure_is_an_error_of_every_target(tmp_path, monkeypatch):
    """A check that fails once per fit still fails each target on its own.

    The selected columns of this design are orthogonal with equal norms, so
    their Gram passes a condition limit of 1 and the randomization covariance
    (all columns, unequal norms, condition number 4) is the first check to fail.
    """
    X = hadamard(64).astype(float)[:, 1:9]
    X[:, 7] *= 0.5
    rng = np.random.default_rng(0)
    y = 4.0 * X[:, 0] - 4.0 * X[:, 1] + 3.0 * X[:, 2] + rng.standard_normal(64)
    path = tmp_path / "orth.csv"
    write_csv(path, ["y"] + [f"x{j}" for j in range(8)], np.column_stack([y, X]).tolist())
    common = ["--input", str(path), "--rho", "0.8", "--seed", "0"]
    assert main(["select", *common, "--out", str(tmp_path / "sel.json")]) == 0
    selected = json.loads((tmp_path / "sel.json").read_text())["selected_indices"]
    assert len(selected) >= 2

    monkeypatch.setattr(conditioning, "_COND_LIMIT", 1.0)
    assert main(["infer", *common, "--out", str(tmp_path / "inf")]) == 0
    # error rows have no endpoints and the method no mean length: JSON null
    report = strict_json(tmp_path / "inf.json")
    message = "randomization covariance is ill-conditioned (cond > 1e+00)"
    assert [(r["index"], r["lower"], r["upper"], r["error"]) for r in report["rows"]] == [
        (j, None, None, message) for j in selected
    ]
    with open(tmp_path / "inf.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    assert [(r["lower"], r["upper"], r["error"]) for r in csv_rows] == [
        ("", "", message)
    ] * len(selected)
    assert report["methods"]["exact"]["errors"] == len(selected)
    assert report["methods"]["exact"]["mean_length"] is None

    cfg = SimConfig(n=60, p=12, sparsity=2, signal_fraction=2.0, n_reps=1, seed=7)
    _, outcomes = _run_replicate(cfg, 0)
    assert isinstance(outcomes["exact"], ExactSIError)
    assert "ill-conditioned (cond > 1e+00)" in str(outcomes["exact"])


class TestSimulateValidate:
    def test_simulate_writes_summary_and_rows(self, tmp_path):
        out = tmp_path / "study"
        code = main(
            [
                "simulate",
                "--n",
                "50",
                "--p",
                "8",
                "--sparsity",
                "2",
                "--signal-fraction",
                "2.0",
                "--corr",
                "0.3",
                "--sigma2",
                "1.0",
                "--n-reps",
                "3",
                "--rho",
                "0.8",
                "--method",
                "exact",
                "--method",
                "split",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "study.json").read_text())
        assert set(summary["methods"]) == {"exact", "split"}
        with open(tmp_path / "study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert r["method"] in ("exact", "split")
            assert int(r["covered"]) in (0, 1)

    def test_single_rep_csv(self, tmp_path):
        out = tmp_path / "one"
        code = main(
            [
                "simulate", "--n", "50", "--p", "6", "--sparsity", "2",
                "--signal-fraction", "2.0", "--corr", "0.0", "--sigma2", "1.0",
                "--n-reps", "1", "--rho", "0.8", "--method", "exact",
                "--seed", "2", "--out", str(out),
            ]
        )
        assert code == 0
        with open(tmp_path / "one.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        reps = {r["rep"] for r in rows}
        assert reps <= {"0"}
        # one replicate has no standard error: JSON null, not a bare NaN
        summary = strict_json(tmp_path / "one.json")
        assert summary["methods"]["exact"]["coverage_se"] is None

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "[study]\n"
            "n = 50\n"
            "p = 6\n"
            "sparsity = 2\n"
            "signal_fraction = 2.0\n"
            "corr = 0.0\n"
            "sigma2 = 1.0\n"
            "n_reps = 2\n"
            "rho = 0.8\n"
            "methods = exact\n"
            "seed = 5\n"
        )
        out = tmp_path / "cfgstudy"
        code = main(
            ["simulate", "--config", str(cfg), "--n-reps", "1", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "cfgstudy.json").read_text())
        assert summary["config"]["n_reps"] == 1  # flag beat the file
        assert summary["config"]["n"] == 50

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--n", "50", "--p", "6", "--sparsity", "2",
            "--signal-fraction", "2.0", "--corr", "0.0", "--sigma2", "1.0",
            "--n-reps", "2", "--rho", "0.8", "--method", "exact", "--seed", "9",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma2", "-1"], "sigma2 must be positive"),
            (["--p", "0", "--sparsity", "0"], "p must be at least 1"),
            (["--signal-fraction", "-1"], "signal_fraction must be nonnegative"),
        ],
    )
    def test_bad_config_values_are_errors(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s"
        assert main(["simulate", "--n-reps", "1", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "line, kind",
        [("n = abc", "int"), ("n_reps = 2.5", "int"), ("rho = 0,8", "float"),
         ("lambda_rule = abc", "float")],
    )
    def test_config_value_that_does_not_parse_is_an_error(self, tmp_path, capsys, line, kind):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "s"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        key, val = line.split(" = ")
        assert capsys.readouterr().err == (
            f"error: {cfg}: {key} = {val!r} does not parse as {kind}\n"
        )
        assert not (tmp_path / "s.json").exists()

    def test_method_listed_twice_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "s"
        argv = ["simulate", "--n", "50", "--p", "8", "--n-reps", "1", "--out", str(out)]
        assert main([*argv, "--method", "polyhedral", "--method", "polyhedral"]) == 1
        assert capsys.readouterr().err == "error: method 'polyhedral' listed twice\n"
        assert not (tmp_path / "s.json").exists()

    def test_every_flag_beats_the_file(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "n = 50\np = 6\nsparsity = 2\nsignal_fraction = 2.0\nrho = 0.7\n"
            "corr = 0.1\nsigma2 = 2.0\nn_reps = 2\nmethods = exact, uv\n"
            "model = selected\nlambda_rule = 30\nseed = 5\nalpha = 0.2\n"
        )
        parser = build_parser()
        from_file = build_sim_config(parser.parse_args(["simulate", "--config", str(cfg)]))
        assert from_file == SimConfig(
            n=50, p=6, sparsity=2, signal_fraction=2.0, rho=0.7, corr=0.1, sigma2=2.0,
            n_reps=2, methods=("exact", "uv"), model="selected", lambda_rule=30.0,
            seed=5, alpha=0.2,
        )
        flags = [
            "--n", "40", "--p", "5", "--sparsity", "1", "--signal-fraction", "1.0",
            "--rho", "0.6", "--corr", "0.2", "--sigma2", "1.5", "--n-reps", "3",
            "--method", "polyhedral", "--model", "full", "--lambda", "7",
            "--seed", "8", "--alpha", "0.05",
        ]
        args = parser.parse_args(["simulate", "--config", str(cfg), *flags])
        assert build_sim_config(args) == SimConfig(
            n=40, p=5, sparsity=1, signal_fraction=1.0, rho=0.6, corr=0.2, sigma2=1.5,
            n_reps=3, methods=("polyhedral",), model="full", lambda_rule=7.0,
            seed=8, alpha=0.05,
        )


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\n[sec]\na = 1\nb = two words # trailing\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"a": "1", "b": "two words"}


@pytest.mark.parametrize("where", ["constants", "inversion"])
def test_one_failing_target_is_one_error_row(tmp_path, monkeypatch, where):
    """A target that fails inside its fit's batch is an error row of its own.

    The failure is injected into the second exact target: its pivot
    constants fail, or its pivot never leaves 0.5 so that no bracket of the
    batched root-find straddles its level.  Every other row, of both methods,
    is the clean run's.
    """
    rng = np.random.default_rng(6)
    path = make_regression_csv(tmp_path / "d.csv", rng, n=60, p=6)
    argv = ["infer", "--input", str(path), "--rho", "0.8", "--seed", "5",
            "--method", "exact", "--method", "polyhedral"]
    assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
    clean = strict_json(tmp_path / "clean.json")["rows"]
    exact_rows = [k for k, r in enumerate(clean) if r["method"] == "exact"]
    assert len(exact_rows) >= 3 and not any(r["error"] for r in clean)

    real_params = study.pivot_params
    built = []

    def pivot_params(*args, **kwargs):
        params, errors = real_params(*args, **kwargs)
        built.append(params)
        if where == "constants":
            errors = [
                NumericalDegeneracyError("injected degeneracy") if j == 1 else e
                for j, e in enumerate(errors)
            ]
            params = take(params, [0, *range(2, len(errors))])
        return params, errors

    monkeypatch.setattr(study, "pivot_params", pivot_params)
    if where == "inversion":
        real_pivot = inference.exact_pivot

        def stuck(batch, beta0):
            flat = built[0].beta_hat_j[1]
            return np.where(batch.beta_hat_j == flat, 0.5, real_pivot(batch, beta0))

        monkeypatch.setattr(inference, "exact_pivot", stuck)
        message = "target 0.95 not straddled after 60 bracket expansions"
    else:
        message = "injected degeneracy"
    assert main([*argv, "--out", str(tmp_path / "inf")]) == 0
    rows = strict_json(tmp_path / "inf.json")["rows"]
    failed = exact_rows[1]
    assert [k for k, r in enumerate(rows) if r["error"]] == [failed]
    assert rows[failed] == {
        **clean[failed], "lower": None, "upper": None, "significant": -1, "error": message,
    }
    assert [r for k, r in enumerate(rows) if k != failed] == [
        r for k, r in enumerate(clean) if k != failed
    ]


def test_study_fails_a_method_on_its_first_failing_target(monkeypatch):
    """``run_study`` reports the failure of the first failing target in j
    order, whichever way the batch ran."""
    cfg = SimConfig(n=60, p=12, sparsity=2, signal_fraction=2.0, n_reps=1, seed=7,
                    methods=("exact",))
    rows, outcomes = _run_replicate(cfg, 0)
    assert len(rows) >= 3 and outcomes == {"exact": rows[0]["f1"]}
    real_params = study.pivot_params

    def pivot_params(*args, **kwargs):
        # targets 1 and 2 fail, each with its own error
        params, errors = real_params(*args, **kwargs)
        errors = [
            NumericalDegeneracyError(f"injected at target {j}") if j in (1, 2) else e
            for j, e in enumerate(errors)
        ]
        return take(params, [0, *range(3, len(errors))]), errors

    monkeypatch.setattr(study, "pivot_params", pivot_params)
    _, outcomes = _run_replicate(cfg, 0)
    assert isinstance(outcomes["exact"], NumericalDegeneracyError)
    assert str(outcomes["exact"]) == "injected at target 1"


def test_unit_change_scales_every_interval(tmp_path):
    """``infer`` on y in other units (y * 10^k): the calibration scales sigma,
    lam and tau2 with y, so every method selects the same targets and every
    endpoint scales by 10^k.  The slack allows rounding (1e-9 relative) and
    the root finder's absolute tolerance of 1e-10 at both scales."""
    X = generate_design(300, 100, 0.9, 41)
    y, _ = generate_response(X, support_indices(100, 5), 0.75, 3.0, 42)
    header = ",".join(["y"] + [f"x{j}" for j in range(100)])
    methods = [m for name in ("exact", "polyhedral", "split", "uv") for m in ("--method", name)]

    def rows_at(k):
        path = tmp_path / f"y{k}.csv"
        np.savetxt(path, np.column_stack([y * 10.0**k, X]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        out = tmp_path / f"inf{k}"
        args = ["infer", "--input", str(path), "--rho", "0.8", "--seed", "5", *methods]
        assert main([*args, "--out", str(out)]) == 0
        return strict_json(tmp_path / f"inf{k}.json")["rows"]

    base = rows_at(0)
    assert {r["method"] for r in base if not r["error"]} == {"exact", "polyhedral", "split", "uv"}
    for k in (-6, 3, 6, 9):
        rows = rows_at(k)
        key = [(r["method"], r["index"], r["error"]) for r in rows]
        assert key == [(r["method"], r["index"], r["error"]) for r in base]
        slack = 4e-10 * (1.0 + 10.0**-k)
        for got, want in zip(rows, base):
            for end in ("lower", "upper"):
                if want[end] is None:
                    assert got[end] is None
                    continue
                x = got[end] / 10.0**k
                assert abs(x - want[end]) <= 1e-9 * max(1.0, abs(want[end])) + slack
