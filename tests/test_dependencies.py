"""numpy is the package's one runtime dependency outside the standard library."""

import os
import subprocess
import sys

import lfdepth

PROBE = """
import sys
before = set(sys.modules)
import lfdepth, lfdepth.cli, lfdepth.gradcheck
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - set(sys.stdlib_module_names))))
"""


def test_package_imports_nothing_but_numpy_outside_the_standard_library():
    # a fresh interpreter, so modules that the test runner has loaded do not hide an import
    src = os.path.dirname(os.path.dirname(os.path.abspath(lfdepth.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["lfdepth", "numpy"]
