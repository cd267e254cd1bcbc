import re
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
