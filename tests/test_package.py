import re
from pathlib import Path

import bhbounds
from bhbounds import constants, exponents, forms, khinchine, verify


def test_every_public_name_is_the_package_attribute():
    # Each module's __all__ is the one list of the package's public names.
    package = vars(bhbounds)
    missing = [
        f"{module.__name__}.{name}"
        for module in (constants, exponents, forms, khinchine, verify)
        for name in module.__all__
        if name not in package or package[name] is not getattr(module, name)
    ]
    assert missing == []


def test_readme_library_tour_runs():
    # The tour's python block runs as written, so an API change breaks here.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(tour.group(1), "README.md", "exec"), {})
