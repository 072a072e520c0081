"""README.md's python examples run as written.

Its python blocks run in order, from the repository root, in one
namespace: the second block uses the model and split the first built.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order(monkeypatch):
    blocks = BLOCK.findall((ROOT / "README.md").read_text())
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"),
             namespace)
    assert len(namespace["per_run"]) == len(namespace["config"].seeds)
    assert namespace["first_weight_grad"].shape == \
        namespace["model"].parameters[0].shape
