"""The package namespace: every public name and module loads on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import escrowsim

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_loaded_by(code):
    """The ``escrowsim`` modules in ``sys.modules`` after a fresh interpreter runs ``code``."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('escrowsim'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-B", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("code", ["import escrowsim", "import escrowsim.scenario"])
def test_importing_the_package_or_the_scenario_layer_loads_neither_oracle_nor_cli(code):
    loaded = modules_loaded_by(code)
    assert "escrowsim.oracle" not in loaded
    assert "escrowsim.cli" not in loaded
    if code == "import escrowsim":
        assert loaded == ["escrowsim"]
    else:
        assert "escrowsim.scenario" in loaded


def test_a_module_resolves_as_a_package_attribute_on_first_use():
    loaded = modules_loaded_by(
        "import escrowsim\n"
        "escrowsim.scenario.parse_scenario\n"
        "escrowsim.oracle.oracle_settlement"
    )
    assert {"escrowsim.scenario", "escrowsim.oracle"} <= set(loaded)


def test_every_public_name_is_what_its_home_module_defines():
    assert escrowsim.__all__
    for name in escrowsim.__all__:
        value = getattr(escrowsim, name)
        assert value.__module__.startswith("escrowsim."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from escrowsim import *", namespace)
    assert set(escrowsim.__all__) <= set(namespace)
    listed = dir(escrowsim)
    assert set(escrowsim.__all__) <= set(listed)
    assert {"scenario", "oracle", "ledger", "__version__"} <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        escrowsim.no_such_name
