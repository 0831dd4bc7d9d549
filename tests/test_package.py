"""The package's public names, which it imports from their submodules on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turnover_spectra


@pytest.mark.parametrize("name", turnover_spectra.__all__)
def test_every_public_name_is_its_submodules_object(name):
    own = getattr(importlib.import_module(f"turnover_spectra.{turnover_spectra._MODULE_OF[name]}"), name)
    namespace = {}
    exec(f"from turnover_spectra import {name}", namespace)
    assert getattr(turnover_spectra, name) is own
    assert namespace[name] is own
    assert name in dir(turnover_spectra)


def test_no_public_name_is_listed_under_two_submodules():
    assert sum(map(len, turnover_spectra._EXPORTS.values())) == len(turnover_spectra.__all__)


@pytest.mark.parametrize("module", sorted(turnover_spectra._EXPORTS))
def test_a_submodule_resolves_as_an_attribute(module):
    assert getattr(turnover_spectra, module) is importlib.import_module(f"turnover_spectra.{module}")


@pytest.mark.parametrize("module", sorted(turnover_spectra._EXPORTS))
def test_a_submodule_read_before_anything_imported_it_is_the_imported_module(module):
    # a fresh interpreter, where the attribute goes through the package's __getattr__
    probe = (
        "import sys, turnover_spectra; "
        f"name = 'turnover_spectra.{module}'; "
        "assert name not in sys.modules, name; "
        f"assert turnover_spectra.{module} is sys.modules[name], name"
    )
    src = str(Path(turnover_spectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        turnover_spectra.no_such_name
    with pytest.raises(ImportError):
        exec("from turnover_spectra import no_such_name", {})
