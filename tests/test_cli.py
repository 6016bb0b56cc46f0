import csv
import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from conftest import (
    ill_conditioned_frame,
    near_copy_frame,
    reference_read_csv,
    six_rows,
    write_frame,
    zero_frame,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from exactsi import cli, inference, numerics, study
from exactsi.cli import (
    build_parser,
    build_sim_config,
    main,
    parse_config_file,
    read_csv_dataset,
)
from exactsi.errors import ExactSIError, InvalidArgumentError, NumericalDegeneracyError
from exactsi.selection import Dataset, solve_randomized_lasso
from exactsi.study import (
    KNOWN_METHODS,
    SimConfig,
    _run_block,
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
        outcome, _ = study.randomized_selection(data, cal, 3)
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

    @pytest.mark.parametrize("flag", [("--alpha", "0.1"), ("--model", "full")])
    def test_level_and_model_are_not_options(self, tmp_path, capsys, flag):
        """Selection reads no level and no target model: ``select`` rejects
        ``--alpha`` and ``--model`` as unknown arguments."""
        path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(3))
        with pytest.raises(SystemExit) as exc:
            main(["select", "--input", str(path), "--rho", "0.8", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


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

    def test_bad_level_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        """``--alpha 1.5`` fails before the CSV is read or any lasso solved."""
        calls = {"read_csv_dataset": 0, "solve_randomized_lasso": 0}
        for owner, name in ((cli, "read_csv_dataset"), (study, "solve_randomized_lasso")):

            def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(7), n=60, p=6)
        code = main(
            [
                "infer", "--input", str(path), "--rho", "0.8", "--alpha", "1.5",
                "--method", "exact", "--method", "polyhedral", "--out", str(tmp_path / "inf"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: alpha must lie in (0, 1)\n"
        assert calls == {"read_csv_dataset": 0, "solve_randomized_lasso": 0}
        assert not (tmp_path / "inf.json").exists()

    def test_no_option_carries_over_to_the_next_call(self, tmp_path):
        """``main`` keeps one parser per process, and no call leaves an
        option to the next: ``--method`` given once, then once more, then
        not at all gives polyhedral, polyhedral, then the default exact."""
        rng = np.random.default_rng(6)
        methods = []
        for seed, extra in (("5", ("--method", "polyhedral")),
                            ("6", ("--method", "polyhedral")), ("7", ())):
            report, rows = self.run_infer(tmp_path, rng, extra=extra, seed=seed)
            assert {r["method"] for r in rows} <= set(report["methods"])
            methods.append(list(report["methods"]))
        assert methods == [["polyhedral"], ["polyhedral"], ["exact"]]
        assert cli._parser() is cli._parser()

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

    The selected columns of this design are orthogonal, so their Gram
    scaled to unit diagonal is the identity and passes a condition limit of
    1; two unselected columns are correlated, so the randomization
    covariance (all columns) is the first check to fail.
    """
    X = hadamard(64).astype(float)[:, 1:9]
    X[:, 7] += 0.5 * X[:, 6]
    rng = np.random.default_rng(0)
    y = 4.0 * X[:, 0] - 4.0 * X[:, 1] + 3.0 * X[:, 2] + rng.standard_normal(64)
    path = tmp_path / "orth.csv"
    write_csv(path, ["y"] + [f"x{j}" for j in range(8)], np.column_stack([y, X]).tolist())
    common = ["--input", str(path), "--rho", "0.8", "--seed", "0"]
    assert main(["select", *common, "--out", str(tmp_path / "sel.json")]) == 0
    selected = json.loads((tmp_path / "sel.json").read_text())["selected_indices"]
    assert len(selected) >= 2

    monkeypatch.setattr(numerics, "_MAX_SCALED_COND", 1.0)
    assert main(["infer", *common, "--out", str(tmp_path / "inf")]) == 0
    # error rows have no endpoints and the method no mean length: JSON null
    report = strict_json(tmp_path / "inf.json")
    message = "randomization covariance is singular or ill-conditioned (scaled cond > 1e+00)"
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
    ((_, outcomes),) = _run_block(cfg, [0])
    assert isinstance(outcomes["exact"], ExactSIError)
    assert "ill-conditioned (scaled cond > 1e+00)" in str(outcomes["exact"])


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

    def test_validate_reads_no_level(self, tmp_path, capsys):
        """``validate --alpha`` changes nothing but its echo in ``config``:
        the KS test pools pivots, not intervals.  Its help says so."""
        argv = ["validate", "--n", "100", "--p", "20", "--n-reps", "30", "--rho", "0.8",
                "--seed", "4"]
        written = []
        for alpha in ("0.1", "0.35"):
            out = tmp_path / f"v{alpha}"
            assert main(argv + ["--alpha", alpha, "--out", str(out)]) == 0
            written.append(json.loads((tmp_path / f"v{alpha}.json").read_bytes()))
        assert [w["config"].pop("alpha") for w in written] == [0.1, 0.35]
        assert written[0] == written[1]
        assert written[0]["reports"]["exact"]["n_pooled"] == 283
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        assert "reads no level" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_is_an_error(self, tmp_path, capsys, workers):
        out = tmp_path / "s"
        argv = ["simulate", "--n-reps", "2", "--workers", workers, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: workers must be at least 1\n"
        assert not (tmp_path / "s.json").exists()

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma2", "-1"], "sigma2 -1.0 is not finite and positive"),
            (["--p", "0", "--sparsity", "0"], "p must be at least 1"),
            (["--signal-fraction", "-1"], "signal_fraction must be nonnegative and finite"),
            (["--n", "-1"], "n must be at least 2"),
            (["--n", "1"], "n must be at least 2"),
            (["--sigma2", "inf"], "sigma2 inf is not finite and positive"),
            (["--signal-fraction", "inf"], "signal_fraction must be nonnegative and finite"),
        ],
    )
    def test_bad_config_values_are_errors(self, tmp_path, capsys, monkeypatch, flags, message):
        """A bad value fails before any data are generated.  An infinite
        ``sigma2`` or ``signal_fraction`` once failed only on the generated
        data ("data contains NaN or Inf"), the second with a RuntimeWarning."""

        def generate(*args):
            raise AssertionError("data generated")

        monkeypatch.setattr(study, "generate_design", generate)
        out = tmp_path / "s"
        assert main(["simulate", "--n-reps", "1", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("lam", ["-1", "0", "nan", "inf"])
    def test_lambda_that_every_replicate_fails_on_is_an_error(
        self, tmp_path, capsys, command, lam
    ):
        out = tmp_path / "s"
        assert main([command, "--n-reps", "3", "--lambda", lam, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: lambda_rule must be 'theory' or a positive finite number, not {float(lam)!r}\n"
        )
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
        return params, errors

    monkeypatch.setattr(study, "pivot_params", pivot_params)
    if where == "inversion":
        real_probit = inference._exact_probit

        def stuck(batch, beta0):
            # pivot 0.5 (probit 0) with slope 0
            h, slope = real_probit(batch, beta0)
            mask = batch.beta_hat_j == built[0].beta_hat_j[1]
            return np.where(mask, 0.0, h), np.where(mask, 0.0, slope)

        monkeypatch.setattr(inference, "_exact_probit", stuck)
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
    ((rows, outcomes),) = _run_block(cfg, [0])
    assert len(rows) >= 3 and outcomes == {"exact": rows[0]["f1"]}
    real_params = study.pivot_params

    def pivot_params(*args, **kwargs):
        # targets 1 and 2 fail, each with its own error
        params, errors = real_params(*args, **kwargs)
        errors = [
            NumericalDegeneracyError(f"injected at target {j}") if j in (1, 2) else e
            for j, e in enumerate(errors)
        ]
        return params, errors

    monkeypatch.setattr(study, "pivot_params", pivot_params)
    ((_, outcomes),) = _run_block(cfg, [0])
    assert isinstance(outcomes["exact"], NumericalDegeneracyError)
    assert str(outcomes["exact"]) == "injected at target 1"


def test_unit_change_scales_every_interval(tmp_path):
    """``infer`` on y in other units (y * 10^k): the calibration scales sigma,
    lam and tau2 with y, so every method selects the same targets and every
    endpoint scales by 10^k.  The tolerance is 1e-9 relative plus a slack of
    4e-10 in the units of k = 0 at every k: the root finder stops each
    endpoint at a step relative to its target's scale."""
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
        slack = 4e-10
        for got, want in zip(rows, base):
            for end in ("lower", "upper"):
                if want[end] is None:
                    assert got[end] is None
                    continue
                x = got[end] / 10.0**k
                assert abs(x - want[end]) <= 1e-9 * max(1.0, abs(want[end])) + slack


@pytest.mark.parametrize("model", ["selected", "full"])
def test_infer_factors_the_gram_once(tmp_path, monkeypatch, model):
    """One ``exactsi infer`` on a 120 x 48 CSV makes one Cholesky
    factorization of a p x p matrix: the dataset's factor of X'X, which the
    plug-in, the randomization draw, the geometry, the pivot constants and
    (full model) the contrasts all read.  ``np.linalg.cholesky`` is never
    called.  No array of the event representation has n rows or p - q
    columns (q the number selected), and no array of the targets' record
    has n rows: after ``build_target`` the chain carries no n-row contrast."""
    n, p = 120, 48
    X = generate_design(n, p, 0.5, 21)
    y, _ = generate_response(X, support_indices(p, 4), 0.75, 1.0, 22)
    path = tmp_path / "d.csv"
    np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",",
               header=",".join(["y"] + [f"x{j}" for j in range(p)]), comments="")
    shapes = []

    def counted(real):
        def call(mat, *args, **kwargs):
            shapes.append(np.shape(mat))
            return real(mat, *args, **kwargs)

        return call

    def no_cholesky(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    # every Cholesky factorization, the dataset's through ``try_cho_factor``
    monkeypatch.setattr(numerics, "cho_factor", counted(numerics.cho_factor))
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    reps = []
    real_rep = study.lasso_event_rep

    def recorded(*args, **kwargs):
        reps.append(real_rep(*args, **kwargs))
        return reps[-1]

    monkeypatch.setattr(study, "lasso_event_rep", recorded)
    targets = []
    real_target = study.build_target

    def recorded_target(*args, **kwargs):
        targets.append(real_target(*args, **kwargs))
        return targets[-1]

    monkeypatch.setattr(study, "build_target", recorded_target)
    args = ["infer", "--input", str(path), "--rho", "0.8", "--seed", "3",
            "--model", model, "--out", str(tmp_path / "inf")]
    assert main(args) == 0
    rows = strict_json(tmp_path / "inf.json")["rows"]
    assert len(rows) >= 2 and not any(r["error"] for r in rows)
    assert shapes.count((p, p)) == 1
    (rep,) = reps
    arrays = [getattr(rep, f.name) for f in fields(rep)]
    assert all(n not in np.shape(a) for a in arrays)
    q = rep.opt.size
    assert all(p - q not in np.shape(a)[1:] for a in arrays)
    (target,) = targets
    assert all(np.shape(getattr(target, f.name))[:1] != (n,) for f in fields(target))


def test_column_units_do_not_decide_the_randomization_check(tmp_path):
    """``infer`` with column 50 of an AR(0.9) design in units 1e5 and 1e7
    times its own: the randomization covariance is checked scaled to unit
    diagonal, so neither run writes an error row, and every endpoint of
    coordinate 50 times its scale, and every other endpoint, agrees across
    the two runs."""
    X = generate_design(300, 100, 0.9, 41)
    y, _ = generate_response(X, support_indices(100, 5), 0.75, 3.0, 42)
    header = ",".join(["y"] + [f"x{j}" for j in range(100)])

    def rows_at(scale):
        path, out = tmp_path / f"x{scale:g}.csv", tmp_path / f"inf{scale:g}"
        scaled = X.copy()
        scaled[:, 50] *= scale
        np.savetxt(path, np.column_stack([y, scaled]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        args = ["infer", "--input", str(path), "--rho", "0.8", "--seed", "5",
                "--method", "exact", "--method", "polyhedral", "--out", str(out)]
        assert main(args) == 0
        rows = strict_json(tmp_path / f"inf{scale:g}.json")["rows"]
        assert rows and not any(r["error"] for r in rows)
        return [
            (r["method"], r["index"],
             *(r[end] * (scale if r["index"] == 50 else 1.0) for end in ("lower", "upper")))
            for r in rows
        ]

    small, large = rows_at(1e5), rows_at(1e7)
    assert {r[0] for r in small} == {"exact", "polyhedral"}
    assert [r[:2] for r in large] == [r[:2] for r in small]
    for got, want in zip(large, small):
        assert got[2:] == pytest.approx(want[2:], rel=1e-9, abs=0)


def _probe(tmp_path, capsys, argv):
    """Run ``main(argv + --out)``; its exit code, its stderr lines, whether it
    wrote anything, and the warnings it emitted."""
    out = tmp_path / "probe"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    written = [p.name for p in tmp_path.iterdir() if p.name.startswith("probe")]
    return code, capsys.readouterr().err.splitlines(), written, caught


@pytest.mark.parametrize("extra, message", [
    (("--rho", "0.8", "--lambda", "inf"), "--lambda must be finite, not inf"),
    (("--rho", "0.8", "--sigma", "inf"), "sigma inf is not finite and positive"),
    (("--tau2", "inf"), "--tau2 must be finite, not inf"),
    (("--rho", "0.8", "--epsilon", "inf"), "--epsilon must be finite, not inf"),
    (("--rho", "inf"), "--rho must be finite, not inf"),
    (("--rho", "0.8", "--sigma", "1e200"), "noise variance inf is not finite and positive"),
])
def test_infinite_tuning_value_fails(tmp_path, capsys, extra, message):
    """An infinite tuning value fails with one error line that names it, no
    output and no warning.  Unchecked, ``--lambda``, ``--sigma`` or
    ``--tau2`` at inf selected nothing and exited 0 with no interval and no
    error; ``--epsilon inf`` met a misleading ``ConvergenceError``, and
    ``--rho inf`` an ``OverflowError``.  A finite ``--sigma`` whose square
    overflows fails the same way."""
    path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(3), n=60, p=5)
    for command in ("infer", "select"):
        code, err, written, caught = _probe(
            tmp_path, capsys, [command, "--input", str(path), *extra]
        )
        assert (code, err, written, caught) == (1, [f"error: {message}"], [], [])


def one_feature_csv(path):
    """A 40-row CSV of y = 2 x + N(0, 1)."""
    x = np.random.default_rng(3).standard_normal((40, 1))
    write_frame(path, 2 * x[:, 0] + np.random.default_rng(4).standard_normal(40), x)
    return path


@pytest.mark.parametrize("command", ["infer", "select", "simulate", "validate"])
def test_theory_penalty_at_one_feature_fails(tmp_path, capsys, monkeypatch, command):
    """At p = 1 the theory penalty is 0: without ``--lambda`` each command
    fails with one error line that names the cause and the flag, before any
    fit or generated data.  Unchecked, ``infer`` and ``select`` on a
    one-feature CSV exited 1 on "penalty 0.0 is not finite and positive",
    as did every replicate of ``simulate --p 1``."""
    for name in ("plug_in_sigma2", "generate_design"):
        monkeypatch.setattr(study, name, lambda *args: pytest.fail(f"{name} ran"))
    path = one_feature_csv(tmp_path / "d.csv")
    one = ["--p", "1", "--sparsity", "1"]
    data = ["--input", str(path)] if command in ("infer", "select") else one
    code, err, written, caught = _probe(tmp_path, capsys, [command, *data, "--rho", "0.8"])
    message = "error: theory penalty is 0 at p = 1 (sqrt(2 log p) = 0): give one with --lambda"
    assert (code, err, written, caught) == (1, [message], [], [])


def test_one_feature_with_a_penalty_gets_intervals(tmp_path):
    """Given ``--lambda``, every method gives the one feature its interval."""
    path = one_feature_csv(tmp_path / "d.csv")
    argv = ["infer", "--input", str(path), "--rho", "0.8", "--lambda", "5"]
    argv += ["--out", str(tmp_path / "o")]
    for method in KNOWN_METHODS:
        argv += ["--method", method]
    assert main(argv) == 0
    rows = strict_json(tmp_path / "o.json")["rows"]
    assert [r["method"] for r in rows] == list(KNOWN_METHODS)
    assert all(r["index"] == 0 and not r["error"] and r["lower"] < r["upper"] for r in rows)


@pytest.mark.parametrize("column, message", [
    (0, "noise variance inf is not finite and positive"),
    (slice(1, None), "X'X is not finite: the data are too large"),
])
def test_overflowing_data_fail(tmp_path, capsys, column, message):
    """A 40 x 3 CSV whose response, or whose features, lie around 1e160: the
    plug-in noise variance, or X'X, overflows to inf.  Each fails with one
    error line that names it, no output and no warning; unchecked, the first
    selected nothing and exited 0, and the second met a misleading error,
    both with a ``RuntimeWarning``."""
    rng = np.random.default_rng(4)
    table = rng.standard_normal((40, 4))
    table[:, column] *= 1e160
    path = tmp_path / "huge.csv"
    write_csv(path, ["y", "x0", "x1", "x2"], table.tolist())
    for command in ("infer", "select"):
        code, err, written, caught = _probe(
            tmp_path, capsys, [command, "--input", str(path), "--rho", "0.8"]
        )
        assert (code, err, written, caught) == (1, [f"error: {message}"], [], [])


@pytest.mark.parametrize("extra", [("--rho", "0", "--method", "uv"), ("--rho", "1.5")])
@pytest.mark.parametrize("command", ["infer", "select"])
def test_rho_outside_unit_interval_fails(tmp_path, capsys, command, extra):
    """``calibrate`` checks rho by the rule of ``SimConfig`` (``check_rho``):
    one error line, no output and no warning.  Unchecked, ``infer --rho 0
    --method uv`` raised a ``ZeroDivisionError`` with a traceback, and
    ``--rho 1.5`` wrote an unrelated error for each method."""
    if command == "select" and "--method" in extra:
        extra = extra[:2]
    path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(3), n=60, p=5)
    code, err, written, caught = _probe(tmp_path, capsys, [command, "--input", str(path), *extra])
    assert (code, err, written, caught) == (1, ["error: rho must lie in (0, 1)"], [], [])


@pytest.mark.parametrize("extra, code, err", [
    (("--tau2", "1"), 0, []),
    (("--rho", "0.8", "--tau2", "1"), 1, ["error: give exactly one of --rho or --tau2"]),
], ids=["tau2", "rho_and_tau2"])
def test_uv_takes_exactly_one_of_rho_and_tau2(tmp_path, capsys, extra, code, err):
    """uv has the exact method's option rule: ``--tau2`` alone gives its
    intervals, and ``--rho`` with ``--tau2`` is an argument error.  Before,
    uv needed ``--rho``, and took it alongside ``--tau2``."""
    path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(3), n=60, p=5)
    got = _probe(tmp_path, capsys, ["infer", "--input", str(path), "--method", "uv", *extra])
    assert got[:2] == (code, err) and not got[3]
    if code:
        assert got[2] == []
    else:
        rows = strict_json(tmp_path / "probe.json")["rows"]
        assert rows and all(r["method"] == "uv" and not r["error"] for r in rows)


def test_uv_selects_at_the_given_penalty(tmp_path, capsys):
    """``infer --method uv --lambda 20`` selects what the lasso at 20 selects
    on uv's draw ``w ~ N(0, tau2 I)``, at ``tau2 = sigma2 (n - n1) / n1 =
    0.25``.  Before, uv ran at ``sqrt(1 + f) lam = sqrt(1.25) * 20``, which
    selects two features fewer on this draw."""
    X = generate_design(100, 20, 0.5, 3)
    y, _ = generate_response(X, support_indices(20, 5), 0.75, 1.0, 4)
    write_frame(tmp_path / "d.csv", y, X)
    argv = ["infer", "--input", str(tmp_path / "d.csv"), "--rho", "0.8", "--sigma", "1",
            "--lambda", "20", "--method", "uv", "--seed", "5"]
    assert _probe(tmp_path, capsys, argv)[:2] == (0, [])
    got = [r["index"] for r in strict_json(tmp_path / "probe.json")["rows"]]
    xtw = X.T @ (np.random.default_rng(5).standard_normal(100) * 0.5)
    data = Dataset(y=y, X=X)

    def selected(lam):
        return solve_randomized_lasso(data, lam=lam, epsilon=0.0, w=xtw).selected.tolist()

    assert got == selected(20.0) != selected(20.0 * 1.25**0.5)


def test_split_takes_the_known_noise(tmp_path, capsys):
    """``infer --method split --sigma s`` at a fixed penalty selects the same
    features at every s, and each interval is ``beta_hat -+ z s ||c||`` on
    the held-out rows: doubling s doubles every length, to rounding, about
    the same midpoint.  Before, split read the held-out plug-in even when
    the noise was known, so no length moved with s."""
    X = generate_design(100, 20, 0.5, 3)
    y, _ = generate_response(X, support_indices(20, 5), 0.75, 1.0, 4)
    write_frame(tmp_path / "d.csv", y, X)

    def rows_at(sigma):
        argv = ["infer", "--input", str(tmp_path / "d.csv"), "--rho", "0.8", "--sigma", sigma,
                "--lambda", "20", "--method", "split", "--seed", "5"]
        assert _probe(tmp_path, capsys, argv)[:2] == (0, [])
        return strict_json(tmp_path / "probe.json")["rows"]

    one, two = rows_at("1"), rows_at("2")
    assert [r["index"] for r in two] == [r["index"] for r in one]
    assert len(one) >= 3 and not any(r["error"] for r in one + two)
    for a, b in zip(one, two):
        assert b["upper"] - b["lower"] == pytest.approx(2.0 * (a["upper"] - a["lower"]), rel=1e-12)
        assert b["upper"] + b["lower"] == pytest.approx(a["upper"] + a["lower"], rel=1e-12)


@pytest.mark.parametrize("command", ["infer", "select"])
def test_negative_ridge_fails_before_any_lasso(tmp_path, capsys, monkeypatch, command):
    """``--epsilon -1`` fails ``calibrate`` by the lasso's own rule
    (``check_epsilon``): one error line, no output, no warning and no lasso
    solved.  Unchecked, ``infer`` exited 0 with an exact error row, while
    ``select`` failed in its lasso with this message."""
    solves = []
    monkeypatch.setattr(study, "solve_randomized_lasso", lambda *args, **kwargs: solves.append(1))
    path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(3), n=60, p=5)
    argv = [command, "--input", str(path), "--rho", "0.8", "--epsilon", "-1"]
    code, err, written, caught = _probe(tmp_path, capsys, argv)
    assert (code, err, written, caught, solves) == (
        1, ["error: epsilon must be nonnegative"], [], [], []
    )


def test_validate_rejects_a_method_it_does_not_test(tmp_path, capsys, monkeypatch):
    """``validate --method exact --method split`` fails with one error line
    before any fit.  Unchecked, it dropped split without a word and exited 0."""
    fits = []
    real = study.fit_method
    monkeypatch.setattr(study, "fit_method", lambda *args: fits.append(1) or real(*args))
    argv = ["validate", "--n", "60", "--p", "8", "--n-reps", "5",
            "--method", "exact", "--method", "split"]
    code, err, written, caught = _probe(tmp_path, capsys, argv)
    assert (code, err, written, caught, fits) == (
        1, ["error: uniformity validation does not test ['split']"], [], [], []
    )


def test_ridge_whose_precision_overflows_fails_only_the_exact_fit(tmp_path, capsys):
    """``--epsilon 1e300`` makes the free block's conditional precision
    overflow: every exact target is an error row of ``factor_spd``'s check,
    with no warning, and the rows of the other methods, whose lassos have no
    ridge term, are those of a run at the default ridge (0 here, n > p).
    Before, Cholesky's ``ValueError`` on the inf escaped with a traceback."""
    path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(3), n=60, p=5)
    methods = [arg for m in KNOWN_METHODS for arg in ("--method", m)]
    runs = {}
    for name, extra in (("huge", ["--epsilon", "1e300"]), ("default", [])):
        argv = ["infer", "--input", str(path), "--rho", "0.8", *methods, *extra,
                "--out", str(tmp_path / name)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        runs[name] = strict_json(tmp_path / f"{name}.json")["rows"]
    exact = [r for r in runs["huge"] if r["method"] == "exact"]
    assert exact and all(r["lower"] is None for r in exact)
    assert {r["error"] for r in exact} == {
        "conditional precision of the free block is singular or ill-conditioned"
        " (scaled cond > 1e+12)"
    }
    assert [r for r in runs["huge"] if r["method"] != "exact"] == [
        r for r in runs["default"] if r["method"] != "exact"
    ]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["infer", "simulate"])
def test_level_with_an_infinite_quantile_fails(tmp_path, capsys, command):
    """``--alpha 1e-300 --method split``: ``1 - alpha / 2`` rounds to 1, so
    ``check_level`` refuses it with one error line, no output and no
    warning.  Unchecked, the split intervals were (-inf, inf) and the strict
    JSON writer raised ``ValueError`` with a traceback."""
    path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(3), n=60, p=5)
    data = ["--input", str(path), "--rho", "0.8"] if command == "infer" else [
        "--n", "60", "--p", "5", "--n-reps", "2"
    ]
    code, err, written, caught = _probe(
        tmp_path, capsys, [command, *data, "--alpha", "1e-300", "--method", "split"]
    )
    message = "error: alpha must exceed 2**-53, or 1 - alpha / 2 rounds to 1"
    assert (code, err, written, caught) == (1, [message], [], [])


@pytest.mark.parametrize("command", ["select", "infer", "simulate", "validate"])
def test_negative_seed_fails(tmp_path, capsys, monkeypatch, command):
    """``--seed -1`` fails with one error line, no output and no warning;
    ``select`` and ``infer`` fail before the CSV is read.  Unchecked, numpy's
    generators raised a bare ``ValueError`` with a traceback."""
    reads = []
    real_read = cli.read_csv_dataset

    def counted(*args, **kwargs):
        reads.append(args)
        return real_read(*args, **kwargs)

    monkeypatch.setattr(cli, "read_csv_dataset", counted)
    path = make_regression_csv(tmp_path / "d.csv", np.random.default_rng(3), n=60, p=5)
    data = ["--input", str(path), "--rho", "0.8"] if command in ("select", "infer") else []
    code, err, written, caught = _probe(tmp_path, capsys, [command, *data, "--seed", "-1"])
    message = "error: seed must be nonnegative, got -1"
    assert (code, err, written, caught, reads) == (1, [message], [], [], [])


def test_gram_without_cholesky_factor_fails(tmp_path, capsys):
    """A 40 x 3 CSV whose third column is the first plus 3.9e-9 N(0, 1)
    noise: the rank test keeps every column, yet Cholesky of the Gram fails,
    so the full-model plug-in raises ``SingularDesignError``, not numpy's
    ``LinAlgError``."""
    path = tmp_path / "near.csv"
    write_frame(path, *near_copy_frame())
    data, _ = read_csv_dataset(str(path))
    assert numerics.independent_columns(data.gram).size == 3 and data.factor(np.arange(3)) is None
    message = "error: plug-in design is singular: Cholesky failed"
    for command in ("infer", "select"):
        code, err, written, caught = _probe(
            tmp_path, capsys, [command, "--input", str(path), "--rho", "0.8"]
        )
        assert (code, err, written, caught) == (1, [message], [], [])


def _overflow_frame(design_seed, response_seed):
    X = generate_design(60, 5, 0.5, design_seed)
    return generate_response(X, support_indices(5, 2), 0.75, 3.0, response_seed)[0], X


def test_extreme_randomization_variance_fails_as_numerical(tmp_path, capsys):
    """``--tau2 1e305`` on a 60 x 5 AR(0.5) CSV whose features are scaled
    by 1e-3: the free block's precision is subnormal, so its inverse, the
    conditional covariance Theta, overflows.  Every exact target is a
    ``NumericalDegeneracyError`` row that says so, with no
    ``RuntimeWarning`` (which the suite turns into an error).  Before, every
    target read "target direction has no conditional variance", after
    "invalid value encountered in matmul" warnings."""
    y, X = _overflow_frame(1, 2)
    path = tmp_path / "d.csv"
    write_frame(path, y, 1e-3 * X)
    assert main(["infer", "--input", str(path), "--tau2", "1e305", "--sigma", "1",
                 "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    rows = strict_json(tmp_path / "o.json")["rows"]
    assert [r["error"] for r in rows] == (
        ["conditional covariance of the free block overflows"] * 5
    )


@pytest.mark.parametrize("design_seed, response_seed", [(3, 4), (1, 2)])
def test_long_target_direction_keeps_its_truncation(
    tmp_path, capsys, monkeypatch, design_seed, response_seed
):
    """``--tau2 1e300`` on a 60 x 5 AR(0.5) CSV: every target's direction
    Qj is finite, about 2e298 at its largest entry, but its norm's squares
    overflow.  Each target keeps a truncation, bounded on at least one side,
    and its interval, with no error and no warning.  Before, targets whose
    every sign constraint then counted as orthogonal either got the slice
    (-inf, inf) or failed with "length of the target direction overflows"."""
    geometries = []

    def build_geometry(*args):
        geometries.append(real(*args))
        return geometries[-1]

    real = study.build_geometry
    monkeypatch.setattr(study, "build_geometry", build_geometry)
    path = tmp_path / "d.csv"
    write_frame(path, *_overflow_frame(design_seed, response_seed))
    assert main(["infer", "--input", str(path), "--tau2", "1e300",
                 "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    (geom,) = geometries
    assert (np.isfinite(geom.lower) | np.isfinite(geom.upper)).all()
    rows = strict_json(tmp_path / "o.json")["rows"]
    assert len(rows) == 5
    assert all(not r["error"] and r["lower"] < r["upper"] for r in rows)


def test_ill_conditioned_gram_gets_exact_intervals(tmp_path):
    """A 150 x 20 CSV whose column 3 is column 1 plus 1e-7 N(0, 1): the rank
    test keeps every column, but the Gram fails its scaled-condition check,
    so the randomization base is the jittered Gram and every exact target
    gets its interval.  Keyed on the rank test, the base was the Gram, and
    every exact row was the error "randomization covariance is singular or
    ill-conditioned"."""
    path, out = tmp_path / "near.csv", tmp_path / "inf"
    write_frame(path, *ill_conditioned_frame())
    assert numerics.independent_columns(read_csv_dataset(str(path))[0].gram).size == 20
    argv = ["infer", "--input", str(path), "--rho", "0.8", "--method", "exact", "--out", str(out)]
    assert main(argv) == 0
    rows = strict_json(tmp_path / "inf.json")["rows"]
    assert rows and all(r["method"] == "exact" and not r["error"] for r in rows)
    assert all(r["lower"] < r["upper"] for r in rows)


def test_gram_without_cholesky_factor_draws_from_the_jittered_base(tmp_path, capsys):
    """The 40 x 3 CSV of ``test_gram_without_cholesky_factor_fails`` with a
    known noise sd: the Gram has no Cholesky factor, so the randomization is
    drawn from the jittered base, and ``infer`` with all four methods exits 0
    and reports every method.
    Before, the draw failed the whole run with "randomization covariance is
    not PD"."""
    path = tmp_path / "near.csv"
    write_frame(path, *near_copy_frame())
    methods = ["exact", "polyhedral", "split", "uv"]
    argv = ["infer", "--input", str(path), "--rho", "0.8", "--sigma", "2.0"]
    for method in methods:
        argv += ["--method", method]
    code, err, written, caught = _probe(tmp_path, capsys, argv)
    assert (code, err, caught) == (0, [], [])
    report = strict_json(tmp_path / "probe.json")
    assert list(report["methods"]) == methods
    assert {r["method"] for r in report["rows"]} == set(methods)


@pytest.mark.parametrize("frame, extra, methods, failed, message", [
    # an all-zero design: the randomization base has no Cholesky factor
    (zero_frame, ("--lambda", "1"), KNOWN_METHODS, "exact",
     "randomization covariance is not PD"),
    # round(0.8 * 6) = 5 leaves one held-out row
    (six_rows, (), ("polyhedral", "split"), "split",
     "split size n1=5 leaves no usable half"),
], ids=["zero_40x3", "rows_6x2"])
def test_failed_fit_is_one_error_row(tmp_path, capsys, frame, extra, methods, failed, message):
    """A method that fails on the data before any target writes one error
    row, with no feature, index or endpoints, and ``infer`` exits 0 with
    every other method's rows as its own run writes them.  Before, both
    files failed the whole run: exit 1, the message, and no rows."""
    path = tmp_path / "data.csv"
    write_frame(path, *frame())
    common = ["infer", "--input", str(path), "--rho", "0.8", "--sigma", "1", *extra]

    def run(out, *listed):
        argv = [*common, "--out", str(tmp_path / out)]
        for method in listed:
            argv += ["--method", method]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        return strict_json(tmp_path / f"{out}.json")

    report = run("all", *methods)
    assert list(report["methods"]) == list(methods)
    assert [r for r in report["rows"] if r["method"] == failed] == [{
        "method": failed, "feature": None, "index": None, "lower": None, "upper": None,
        "level": 0.9, "significant": -1, "error": message,
    }]
    with open(tmp_path / "all.csv", newline="") as fh:
        cells = [r for r in csv.DictReader(fh) if r["method"] == failed]
    assert [(r["feature"], r["index"], r["lower"], r["upper"], r["significant"], r["error"])
            for r in cells] == [("", "", "", "", "-1", message)]
    assert report["methods"][failed]["errors"] == 1
    for method in methods:
        if method != failed:
            alone = run(method, method)
            assert [r for r in report["rows"] if r["method"] == method] == alone["rows"]
            assert report["methods"][method] == alone["methods"][method]

