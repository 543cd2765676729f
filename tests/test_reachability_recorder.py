"""The reachability recorder itself, run on a small throw-away source tree.

``tools/reachability.py`` decides which ``src/`` functions may stay, so its
parts are checked here without the full nightly run: ``functions`` names
every ``def`` by its qualified name and first line, the recorder that
``tools/sitecustomize.py`` starts sees calls made in the main thread, in
other threads and in forked children that leave through ``os._exit``, and
the command line exits 0 only when the unreached set equals the
allow-list.  Every committed entry point must also name files and modules
that exist, or the nightly run fails on a rename.
"""

import glob
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")

#: a module with one function per kind of call the recorder must see
MODULE = textwrap.dedent("""\
    import os
    import threading


    def called():
        return 1


    def uncalled():
        return 2


    def in_thread():
        return 3


    def in_fork():
        return 4


    class Holder:
        @staticmethod
        def method():
            def inner():
                return 5
            return inner()

        class Nested:
            async def deep(self):
                return 6


    def main():
        called()
        Holder.method()
        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join()
        pid = os.fork()
        if pid == 0:
            in_fork()
            os._exit(0)
        os.waitpid(pid, 0)
""")


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability_under_test",
                                                  os.path.join(TOOLS, "reachability.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return _load_tool()


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A copy of the tools next to a one-package ``src`` tree."""
    root = tmp_path_factory.mktemp("reach")
    shutil.copytree(TOOLS, root / "tools")
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    return root


def _run(tree, code, record=True):
    out = tree / ("out" if record else "unused")
    out.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "tools"), str(tree / "src")]))
    env.pop("REPRO_REACH_DIR", None)
    if record:
        env["REPRO_REACH_DIR"] = str(out)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    return out


@pytest.fixture(scope="module")
def recorded(tool, tree):
    """``{qualified name}`` of the functions one recorded run of ``main`` called."""
    out = _run(tree, "from pkg import mod; mod.main()")
    names = tool.functions(str(tree / "src"))
    reached = set()
    for path in glob.glob(str(out / "*.reach")):
        with open(path) as fh:
            for line in fh:
                filename, first = line.rsplit(":", 1)
                key = (os.path.realpath(filename), int(first))
                if key in names:
                    reached.add(names[key])
    return reached


class TestFunctions:
    @pytest.mark.parametrize("name,first_line", [
        ("pkg/mod.py::called", 5),
        ("pkg/mod.py::Holder.method", 22),
        ("pkg/mod.py::Holder.method.inner", 24),
        ("pkg/mod.py::Holder.Nested.deep", 29),
        ("pkg/mod.py::main", 33),
    ])
    def test_every_def_is_named_by_its_first_line(self, tool, tree, name, first_line):
        found = tool.functions(str(tree / "src"))
        path = os.path.realpath(tree / "src" / "pkg" / "mod.py")
        assert found[(path, first_line)] == name

    def test_modules_without_defs_add_nothing(self, tool, tree):
        found = tool.functions(str(tree / "src"))
        assert {name.split("::")[0] for name in found.values()} == {"pkg/mod.py"}


class TestRecorder:
    @pytest.mark.parametrize("name", [
        "pkg/mod.py::main",
        "pkg/mod.py::called",
        "pkg/mod.py::Holder.method",
        "pkg/mod.py::Holder.method.inner",
    ])
    def test_main_thread_calls_are_recorded(self, recorded, name):
        assert name in recorded

    def test_calls_in_another_thread_are_recorded(self, recorded):
        assert "pkg/mod.py::in_thread" in recorded

    def test_a_forked_child_flushes_on_os_exit(self, recorded):
        assert "pkg/mod.py::in_fork" in recorded

    @pytest.mark.parametrize("name", [
        "pkg/mod.py::uncalled",
        "pkg/mod.py::Holder.Nested.deep",
    ])
    def test_functions_never_called_are_not_recorded(self, recorded, name):
        assert name not in recorded

    def test_nothing_is_recorded_without_the_environment_variable(self, tree):
        out = _run(tree, "from pkg import mod; mod.called()", record=False)
        assert os.listdir(out) == []


UNREACHED = ["pkg/mod.py::Holder.Nested.deep", "pkg/mod.py::uncalled"]


class TestCommandLine:
    @pytest.mark.parametrize("listed,status", [
        (UNREACHED, 0),
        (UNREACHED[:1], 1),
        (UNREACHED + ["pkg/mod.py::called"], 1),
    ], ids=["equal", "unreached-not-listed", "listed-but-reached"])
    def test_exit_status_says_whether_the_list_is_exact(self, tree, tmp_path, listed,
                                                        status):
        tools = tmp_path / "tools"
        shutil.copytree(tree / "tools", tools)
        shutil.copytree(tree / "src", tmp_path / "src")
        (tools / "reachability_entry_points.txt").write_text(
            "# comment lines and blank lines are skipped\n\n"
            "python -c 'from pkg import mod; mod.main()'\n")
        (tools / "reachability_allow.txt").write_text(
            "# header\n" + "".join(f"{name}  abstract\n" for name in listed))
        result = subprocess.run([sys.executable, str(tools / "reachability.py")],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == status, result.stdout + result.stderr
        assert f"{len(UNREACHED)} of 8 functions unreached, {len(listed)} listed" \
            in result.stdout


def _entry_points():
    with open(os.path.join(TOOLS, "reachability_entry_points.txt")) as fh:
        return [line.strip() for line in fh if line.strip() and line[0] != "#"]


@pytest.mark.parametrize("line", _entry_points())
def test_every_entry_point_names_what_exists(line):
    argv = shlex.split(line)
    assert argv[0] == "python"
    if argv[1] == "-m":
        assert importlib.util.find_spec(argv[2]) is not None, argv[2]
    for part in argv[1:]:
        if part.endswith(".py"):
            assert glob.glob(part, root_dir=ROOT), part
