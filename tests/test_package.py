import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bhbounds
from bhbounds import cli, constants, exponents, forms, khinchine, verify


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


def _fresh(code):
    """(exit code, stdout, stderr) of ``code`` in a fresh interpreter on this src."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


_EVERY_PUBLIC_NAME = (
    "import bhbounds.constants, bhbounds.exponents, bhbounds.forms, bhbounds.khinchine,"
    " bhbounds.verify\n"
    "modules = [sys.modules['bhbounds.' + m] for m in "
    "('constants', 'exponents', 'forms', 'khinchine', 'verify')]\n"
    "print([f'{m.__name__}.{n}' for m in modules for n in m.__all__"
    " if n not in scope or scope[n] is not getattr(m, n)])\n"
)


def test_star_import_binds_every_public_name():
    code = "import sys\nfrom bhbounds import *\nscope = globals()\n" + _EVERY_PUBLIC_NAME
    assert _fresh(code) == (0, "[]\n", "")


def test_importing_verify_binds_every_public_name_in_the_package():
    # No attribute of the package is read before its namespace is checked.
    code = "import sys\nimport bhbounds.verify\nscope = vars(sys.modules['bhbounds'])\n"
    assert _fresh(code + _EVERY_PUBLIC_NAME) == (0, "[]\n", "")


def test_a_forms_name_loads_forms_alone():
    # verify imports numpy.random, which a process that only takes norms
    # never needs; a verify name then binds every public name here.
    code = (
        "import sys, numpy\nby_numpy = 'numpy.random' in sys.modules\nimport bhbounds\n"
        "bhbounds.sup_norm_exact(bhbounds.MultilinearForm([[1.0, 1.0], [1.0, -1.0]]))\n"
        "print('bhbounds.verify' in sys.modules, by_numpy, 'numpy.random' in sys.modules)\n"
        "bhbounds.run_bh_trials\nscope = vars(bhbounds)\n"
    )
    status, out, err = _fresh(code + _EVERY_PUBLIC_NAME)
    loaded, unbound = out.splitlines()
    verify_loaded, by_numpy, random_loaded = loaded.split()
    assert (status, err, verify_loaded, unbound) == (0, "", "False", "[]")
    if by_numpy == "True":
        pytest.skip("this numpy loads numpy.random on import itself")
    assert random_loaded == "False"


def test_package_all_and_dir_cover_every_module():
    names = [n for m in (constants, exponents, forms, khinchine, verify) for n in m.__all__]
    assert bhbounds.__all__ == names
    assert set(names) <= set(dir(bhbounds))


def test_import_leaves_numpy_unloaded():
    code = ("import sys, bhbounds\nbare = 'numpy' in sys.modules\n"
            "from bhbounds import cli\nprint(bare, 'numpy' in sys.modules)")
    assert _fresh(code) == (0, "False False\n", "")


def test_table_runs_without_numpy(capsys):
    argv = ["table", "--m-min", "2", "--m-max", "60", "--format", "json"]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"  # any import of numpy now raises ImportError
        "import bhbounds.cli\n"
        f"code = bhbounds.cli.main({argv!r})\n"
        "print(code, 'bhbounds.forms' in sys.modules, 'bhbounds.verify' in sys.modules,"
        " file=sys.stderr)\n"
    )
    assert cli.main(argv) == 0
    assert _fresh(code) == (0, capsys.readouterr().out, "0 False False\n")
