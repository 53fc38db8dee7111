import numpy as np
import pytest

from edgenet.synthetic import make_synthetic, write_csv


def per_value_csv(x, y):
    """The demo CSV formatted value by value: the reference for write_csv."""
    lines = [",".join(f"f{i}" for i in range(x.shape[1])) + ",label"]
    lines += [",".join(f"{v:.6f}" for v in row) + f",{int(label)}" for row, label in zip(x, y)]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("x, y", [
    # six-decimal rounding edges: half-way cases and values that round up to 1
    (np.array([[0.0, 0.9999995, 0.1234565, 1.0],
               [1.0, 0.1234565, 0.9999995, 0.0]]), np.array([0, 1])),
    make_synthetic(n_rows=300, seed=3),
], ids=["edges", "demo"])
def test_write_csv_bytes_equal_per_value_format(tmp_path, x, y):
    path = tmp_path / "data.csv"
    write_csv(str(path), x, y)
    assert path.read_bytes() == per_value_csv(x, y)
