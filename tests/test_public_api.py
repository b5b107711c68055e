"""Checks on the package's public surface: exports resolve, versioning,
exception hierarchy, and docstring coverage of public items."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import exceptions


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph",
            "repro.platform",
            "repro.timemodels",
            "repro.workloads",
            "repro.mapping",
            "repro.allocation",
            "repro.ea",
            "repro.core",
            "repro.simulator",
            "repro.experiments",
            "repro.experiments.figures",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        mod = importlib.import_module(module_name)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module_name}.{name}"


class TestLazyImports:
    """``import repro.cli`` stays lean: the heavy or unrelated parts of
    the package load only when a caller touches them.  Membership in
    ``sys.modules`` is checked, not timing, so the test cannot flake."""

    HEAVY = (
        "scipy",
        "cffi",
        "repro.experiments",
        "repro.online",
        "repro.simulator",
        "repro.service",
        "repro.testing",
    )

    def _run(self, code: str) -> dict:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_cli_import_skips_heavy_modules(self):
        out = self._run(
            f"""
            import json, sys
            import repro.cli
            loaded = [m for m in {self.HEAVY!r} if m in sys.modules]
            from repro import ScheduleVerifier, execute_online, simulate
            print(json.dumps({{
                "loaded": loaded,
                "resolved": [
                    execute_online.__module__,
                    ScheduleVerifier.__module__,
                    simulate.__module__,
                ],
            }}))
            """
        )
        assert out["loaded"] == []
        assert out["resolved"] == [
            "repro.online.runtime",
            "repro.verify.verifier",
            "repro.simulator.engine",
        ]

    def test_lazy_subpackage_attribute_and_dir(self):
        out = self._run(
            """
            import json, sys
            import repro
            online = repro.online
            print(json.dumps({
                "module": online.__name__,
                "missing": sorted(set(repro.__all__) - set(dir(repro))),
            }))
            """
        )
        assert out == {"module": "repro.online", "missing": []}

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in exceptions.__all__:
            exc = getattr(exceptions, name)
            assert issubclass(exc, exceptions.ReproError)

    def test_catchable_at_base(self):
        from repro.graph import PTG

        with pytest.raises(exceptions.ReproError):
            PTG([], [])


class TestDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph",
            "repro.timemodels",
            "repro.mapping",
            "repro.allocation",
            "repro.ea",
            "repro.core",
            "repro.simulator",
            "repro.experiments",
        ],
    )
    def test_public_items_documented(self, module_name):
        mod = importlib.import_module(module_name)
        undocumented = []
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
                if inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if mname.startswith("_"):
                            continue
                        if not inspect.isfunction(meth):
                            continue
                        if (meth.__doc__ or "").strip():
                            continue
                        # overriding a documented base method inherits
                        # its contract — that counts as documented
                        inherited = any(
                            (
                                getattr(
                                    base, mname, None
                                ).__doc__
                                or ""
                            ).strip()
                            for base in obj.__mro__[1:]
                            if getattr(base, mname, None) is not None
                        )
                        if not inherited:
                            undocumented.append(
                                f"{module_name}.{name}.{mname}"
                            )
        assert not undocumented, undocumented

    def test_package_docstring_mentions_paper(self):
        assert "Hunold" in repro.__doc__
        assert "CLUSTER 2011" in repro.__doc__
