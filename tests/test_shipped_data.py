"""The shipped stand-in dataset is the output of its build script, byte for byte.

The script draws every value from RngStream (uniforms and normals), so this
also checks those draws end to end, to the digits the file keeps, under
whatever BLAS kernel and numpy SIMD loops the run uses."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SHIPPED = REPO / "data" / "lalonde_cps3_synthetic.csv"


def test_build_script_reproduces_the_shipped_csv(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "build_lalonde_standin", REPO / "tools" / "build_lalonde_standin.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = tmp_path / "built.csv"
    script.write_csv(script.build(), built)
    assert built.read_bytes() == SHIPPED.read_bytes()
