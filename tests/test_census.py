"""The call census (``tools/census.py``) classifies a function by who runs
it. The full census takes tens of minutes, so tier-1 runs its classifier
on a three-function package instead: one function per class."""

import importlib.util
import pathlib
import sys
import textwrap

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def _write(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def test_one_function_per_class(tmp_path):
    _write(tmp_path / "src" / "pkg" / "__init__.py", "")
    _write(tmp_path / "src" / "pkg" / "mod.py", """\
        import functools


        def driven():
            def inner():
                return 1
            return inner()


        class Box:
            @functools.lru_cache(maxsize=None)
            def tested(self):
                return 2

            def never(self):
                return 3
        """)
    _write(tmp_path / "drive.py", """\
        import pkg.mod
        pkg.mod.driven()
        """)
    _write(tmp_path / "check.py", """\
        import subprocess, sys
        # only a subprocess runs it: the hook profiles subprocesses too
        subprocess.run([sys.executable, "-c",
                        "import pkg.mod; pkg.mod.Box().tested()"], check=True)
        """)
    result = census.census(tmp_path,
                           [("drive", [sys.executable, "drive.py"])],
                           [("check", [sys.executable, "check.py"])])
    by_name = {result["functions"][key]["name"]: cls
               for key, cls in result["classes"].items()}
    assert by_name == {"driven": 1, "driven.inner": 1, "Box.tested": 2,
                       "Box.never": 3}
    assert [code for _name, _wall, code in result["timings"]] == [0, 0]
    # own lines exclude the nested def; the decorator line counts
    lines = {f["name"]: f["lines"] for f in result["functions"].values()}
    assert lines == {"driven": 2, "driven.inner": 2, "Box.tested": 3,
                     "Box.never": 2}
    report = census.render(result)
    assert "    2          4  run by a driver" in report
    assert "pkg/mod.py:15  Box.never  (2 lines)" in report


def test_the_drivers_name_what_they_run():
    root = census.ROOT
    names = [name for name, _argv in census.drivers()]
    assert len(names) == len(set(names)) == 21
    for name in census.EXAMPLES:
        assert (root / "examples" / f"{name}.py").is_file()
    assert set(census.WORKLOADS) == {
        name for name in _benchmark_workloads(root)}


def _benchmark_workloads(root: pathlib.Path) -> list[str]:
    import json
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]
