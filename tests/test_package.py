import re
import subprocess
import sys
from pathlib import Path

import basicsets

ROOT_NAMES = {"Certificate", "Decomposition", "ParseError", "PointSet", "Verdict",
              "Witness", "canonicalize", "decompose", "fixtures", "is_basic"}


def test_root_exports_the_readme_names_and_the_library_block_runs():
    assert set(basicsets.__all__) == ROOT_NAMES
    assert len(basicsets.__all__) == len(ROOT_NAMES)
    for name in basicsets.__all__:
        assert getattr(basicsets, name) is not None
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert namespace["verdict"].certificate.weights == (2, -1, -1, -1, 1)


LAYERS = ["basicsets", "basicsets.cli", "basicsets.core", "basicsets.decide",
          "basicsets.graphs", "basicsets.ratlin", "basicsets.search"]


def _run_python(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_cli_loads_the_layer_modules_only_and_generate_still_works():
    loaded = _run_python("-c", "import sys, basicsets.cli; print(*sorted(m for m in sys.modules"
                               " if m.split('.')[0] == 'basicsets'))").split()
    assert loaded == LAYERS
    assert "basicsets.generators" not in loaded
    assert _run_python("-m", "basicsets", "generate", "boyarov", "--fixture", "ex2",
                       "--a", "0,0,0", "--b", "0,1,0", "--offset", "1") == (
        "0 0 0\n0 1 0\n1 0 0\n1 0 1\n2 0 0\n2 1 1\n")
    assert _run_python("-m", "basicsets", "fixtures") == (
        "cube8: 8 points\nex2: 5 points\nexample1: 4 points\n")
