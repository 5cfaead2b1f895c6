"""The README's Library snippet, run as written against the top-level package."""

import re
from pathlib import Path

import syzstab
from syzstab.constructions import Route
from syzstab.criterion import Verdict

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs():
    scope = {}
    exec(library_snippet(), scope)
    assert scope["route"] is Route.PROP_FACES
    cert, oracle = scope["cert"], scope["oracle"]
    assert cert.verdict is Verdict.STABLE
    assert oracle == cert
    assert cert.worst.margin == 9


def test_top_level_api_is_the_three_snippet_names():
    public = {
        name for name, obj in vars(syzstab).items()
        if not name.startswith("_") and type(obj) is not type(syzstab)
    }
    assert public == {"dispatch", "check_family", "brute_force_check"}
    assert not hasattr(syzstab, "__all__")
