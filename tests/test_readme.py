"""The README's Quick start runs against the package and prints what it claims."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    return blocks[0]


def test_readme_quick_start():
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_block(), str(README), "exec"), namespace)
    assert len(out.getvalue().splitlines()) >= 5
    rep = namespace["rep"]
    # print(rep.linear_entropy, rep.concurrence, rep.i_l_trace)   # 0.0 1.0 1.0
    assert abs(rep.linear_entropy) <= 1e-12
    assert abs(rep.concurrence - 1.0) <= 1e-12
    assert abs(rep.i_l_trace - 1.0) <= 1e-12
    # print(moved.trace()) != 1, print(q.concurrence(moved)) still 1.0
    q, moved = namespace["q"], namespace["moved"]
    assert abs(moved.trace() - 1.0) > 1e-3
    assert abs(q.concurrence(moved) - 1.0) <= 1e-12
    # print(q.pauli_correlation_table())   diag(1, -1, -1, -1)
    table = q.pauli_correlation_table()
    assert table.shape == (4, 4)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    assert np.abs(table - eta).max() <= 1e-12
    # print(q.spin_hom(lam))   4x4, preserves diag(1,-1,-1,-1)
    image = q.spin_hom(namespace["lam"])
    assert np.abs(image.T @ eta @ image - eta).max() <= 1e-9
