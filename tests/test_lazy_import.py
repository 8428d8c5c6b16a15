"""``import christoffel`` leaves the connection layer unloaded and still serves every public name."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import christoffel

# run in a fresh interpreter, where nothing has imported christoffel.transform yet
SCRIPT = """
import sys
import christoffel

assert "christoffel.transform" not in sys.modules, sorted(sys.modules)
assert set(christoffel.__all__) <= set(dir(christoffel))
assert christoffel.associated is sys.modules["christoffel.associated"].associated
try:
    christoffel.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
christoffel.connection_decompose
assert "christoffel.transform" in sys.modules
assert christoffel.associated is sys.modules["christoffel.associated"].associated
star = {}
exec("from christoffel import *", star)
for name in christoffel.__all__:
    value = getattr(christoffel, name)
    home = christoffel if name == "__version__" else sys.modules[value.__module__]
    assert vars(home)[name] is value and star[name] is value, name
"""


def test_the_connection_layer_loads_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(Path(christoffel.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, stderr=subprocess.PIPE, text=True)
    assert run.returncode == 0, run.stderr
