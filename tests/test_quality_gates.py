"""Quality gates: documentation and API-surface invariants.

These keep the library honest as it grows: every public module, class, and
function carries a docstring, and every package ``__all__`` names things
that actually exist.
"""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro.common",
    "repro.codecs",
    "repro.zfs",
    "repro.disk",
    "repro.vmi",
    "repro.boot",
    "repro.net",
    "repro.core",
    "repro.placement",
    "repro.analysis",
    "repro.experiments",
    "repro.metrics",
    "repro.sweep",
    "repro.obs",
    "repro.slo",
    "repro.shard",
    "repro.sim",
    "repro.faults",
    "repro.workload",
]


def _all_modules():
    modules = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            modules.append(importlib.import_module(f"{package_name}.{info.name}"))
    return modules


ALL_MODULES = _all_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_members_documented(self, module):
        undocumented = []
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(member) or inspect.isfunction(member)):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue  # re-export: documented at its home
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestAllExports:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_dunder_all_resolves(self, module):
        exported = getattr(module, "__all__", None)
        if exported is None:
            return
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.__all__: {name}"


class TestVersion:
    def test_version_matches_pyproject(self):
        pyproject = (
            pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
        ).read_text()
        assert f'version = "{repro.__version__}"' in pyproject
