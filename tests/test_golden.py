import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "golden.py")
_spec = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def test_compare_file_pairs_complex_columns_and_matches_nan(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write(a, "n,surv_re,surv_im,value\n0,1e-9,2.0,nan\n1,3.0,4.0,2.0\n")
    _write(b, "n,surv_re,surv_im,value\n0,2e-9,2.0,nan\n1,3.0,4.0,2.0000000002\n")
    dev, row, col = golden.compare_file(a, b)
    # the tiny real part moves by 1e-9 of a modulus-2 sample; value by 1e-10
    assert (row, col) == (1, "surv")
    assert dev == pytest.approx(0.5e-9, rel=1e-6)
    _write(b, "n,surv_re,surv_im,value\n0,1e-9,2.0,1.0\n1,3.0,4.0,2.0\n")
    assert golden.compare_file(a, b) == (float("inf"), 1, "value")


def test_compare_reports_missing_and_deviating_files(tmp_path, capsys):
    _write(str(tmp_path / "a" / "x" / "t.csv"), "q,value\nh,1.0\n")
    _write(str(tmp_path / "b" / "x" / "t.csv"), "q,value\nh,1.0000000001\n")
    assert golden.compare(str(tmp_path / "a"), str(tmp_path / "b"), 1e-9) == 0
    assert golden.compare(str(tmp_path / "a"), str(tmp_path / "b"), 1e-11) == 1
    _write(str(tmp_path / "a" / "y.csv"), "q\nh\n")
    assert golden.compare(str(tmp_path / "a"), str(tmp_path / "b"), 1e-9) == 1
    assert "missing" in capsys.readouterr().out
