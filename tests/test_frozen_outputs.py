"""Every pinned ``exactsi`` run, byte for byte.

Each entry writes its input, if any, as ``d.csv`` in a directory of its own
and runs one argv through ``cli.main`` there.  ``frozen_outputs.json`` keeps
the SHA-256 of every file the directory then holds, of stdout and of stderr,
and the exit code.  All entries run in one subprocess, this module run as a
script, on one platform that any x86-64-v3 CPU (AVX2 and FMA) runs: one
BLAS thread, OpenBLAS's Haswell kernel and numpy's loops below x86-64-v4.
X'X, and X beta in the inputs, change in their last bits with each of them.
To re-freeze, delete the manifest and run this module.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy
import pytest
import scipy
from numpy._core._multiarray_umath import __cpu_features__
from conftest import (PLATFORM, ar_frame, duplicated_column_frame, ill_conditioned_frame,
                      near_copy_frame, read_frozen, six_rows, write_frame, zero_frame)

from exactsi.cli import main
from exactsi.study import KNOWN_METHODS

FOUR = [flag for method in KNOWN_METHODS for flag in ("--method", method)]
RUN = ["--input", "d.csv", "--rho", "0.8"]
SELECT = ["select", *RUN, "--seed", "3"]
INFER = ["infer", *RUN, "--seed", "3", *FOUR]
SELECTED = [*INFER, "--out", "selected"]
FULL = [*INFER, "--model", "full", "--out", "full"]
AR = {shape: partial(ar_frame, *shape)
      for shape in [(80, 30), (40, 60), (300, 100), (600, 300), (60, 100)]}

# id: (builder of d.csv or None, argv)
ENTRIES = {
    "infer_80x30_selected": (AR[80, 30], SELECTED),
    "infer_80x30_full": (AR[80, 30], FULL),
    "infer_40x60_selected": (AR[40, 60], SELECTED),
    "infer_40x60_full": (AR[40, 60], FULL),
    "infer_300x100_selected": (AR[300, 100], SELECTED),
    "infer_300x100_full": (AR[300, 100], FULL),
    "infer_600x300_selected": (AR[600, 300], SELECTED),
    "infer_600x300_full": (AR[600, 300], FULL),
    "infer_60x100_selected": (AR[60, 100], SELECTED),
    "infer_60x100_full": (AR[60, 100], FULL),
    "infer_300x100_sigma": (AR[300, 100], [*SELECTED, "--sigma", "2.0"]),
    "select_80x30": (AR[80, 30], SELECT),
    "select_40x60": (AR[40, 60], SELECT),
    "select_300x100": (AR[300, 100], SELECT),
    "select_600x300": (AR[600, 300], SELECT),
    "select_60x100": (AR[60, 100], SELECT),
    "simulate_200x50": (None, ["simulate", "--n", "200", "--p", "50", "--n-reps", "20",
                               "--seed", "8", *FOUR]),
    "validate_100x20": (None, ["validate", "--n", "100", "--p", "20", "--n-reps", "30",
                               "--rho", "0.8", "--seed", "4", "--out", "v"]),
    "validate_exact_polyhedral": (None, ["validate", "--n-reps", "60", "--seed", "3",
                                         "--method", "exact", "--method", "polyhedral"]),
    "help": (None, ["--help"]),
    "help_select": (None, ["select", "--help"]),
    "help_infer": (None, ["infer", "--help"]),
    "help_simulate": (None, ["simulate", "--help"]),
    "help_validate": (None, ["validate", "--help"]),
    # the error paths: an X'X that fails its check, has no Cholesky factor or is zero
    "infer_duplicated_column_selected": (duplicated_column_frame, SELECTED),
    "infer_duplicated_column_full": (duplicated_column_frame, FULL),
    "infer_near_copy": (near_copy_frame, SELECTED),
    "infer_near_copy_sigma": (near_copy_frame, [*SELECTED, "--sigma", "2.0"]),
    "infer_ill_conditioned_selected": (ill_conditioned_frame, SELECTED),
    "infer_ill_conditioned_full": (ill_conditioned_frame, FULL),
    "infer_zero": (zero_frame, ["infer", *RUN, "--sigma", "1", "--lambda", "1", *FOUR,
                                "--out", "all"]),
    "infer_six_rows": (six_rows, ["infer", *RUN, "--sigma", "1", "--method", "polyhedral",
                                  "--method", "split", "--out", "all"]),
    "infer_rho_outside_unit_interval": (AR[80, 30], ["infer", "--input", "d.csv", "--rho",
                                                     "1.5", "--out", "selected"]),
}
MANIFEST = Path(__file__).with_name("frozen_outputs.json")
SRC = Path(__file__).resolve().parents[1] / "src"
# the symbol by which each module's bundled OpenBLAS names its kernel
CORENAME = {numpy: "scipy_openblas_get_corename64_", scipy: "scipy_openblas_get_corename"}


def openblas_kernel(mod):
    """The kernel that ``mod``'s bundled OpenBLAS runs, None if it has none."""
    for lib in Path(mod.__file__).parents[1].glob(f"{mod.__name__}.libs/libscipy_openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), CORENAME[mod])
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def run_entries(root):
    """Write every entry's input in its directory under ``root``, run the
    entry there, and digest what it leaves: the subprocess's work."""
    entries = {}
    for name, (frame, argv) in ENTRIES.items():
        (root / name).mkdir()
        os.chdir(root / name)
        if frame:
            write_frame("d.csv", *frame())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's help and usage errors
                code = exc.code
        files = {f.name: f.read_bytes() for f in sorted(Path().iterdir())}
        files.update(stdout=out.getvalue().encode(), stderr=err.getvalue().encode())
        entries[name] = {**{k: hashlib.sha256(v).hexdigest() for k, v in files.items()},
                         "exit": code}
    versions = {"python": platform.python_version()}
    for mod in (numpy, scipy):
        blas = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        versions[mod.__name__] = (f"{mod.__version__} with {blas['name']} {blas['version']},"
                                  f" kernel {openblas_kernel(mod)}")
    versions["numpy X86_V4 loops"] = __cpu_features__["X86_V4"]
    return {"versions": versions, "entries": entries}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("frozen")
    env = {**os.environ, **PLATFORM, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    # numpy warns, at import, of a feature that it cannot disable on this CPU
    done = subprocess.run([sys.executable, "-W", "ignore::ImportWarning", __file__, str(root)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", ENTRIES)
def test_output_is_frozen(runs, name):
    frozen = read_frozen(MANIFEST, json.dumps(runs, indent=1) + "\n")
    assert runs["entries"][name] == frozen["entries"].get(name), (
        f"frozen with {frozen['versions']}, run with {runs['versions']}"
    )


if __name__ == "__main__":
    print(json.dumps(run_entries(Path(sys.argv[1]))))
